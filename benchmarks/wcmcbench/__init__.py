"""The wcmc benchmark: workloads, independent references, checks and tracing."""
