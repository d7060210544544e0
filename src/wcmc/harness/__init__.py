"""Configs, data, runners, result files and the CLI; this package re-exports nothing."""
