"""Print the comparison grid's rows, one line each, for diffing two checkouts.

    PYTHONPATH=src python tools/compare_grid.py > change.txt
    PYTHONPATH=<other checkout>/src python tools/compare_grid.py > parent.txt
    diff parent.txt change.txt

A refactor that moves no random stream and no rounding leaves the output
unchanged.  One that changes how a number is computed, such as a solve in
place of a pseudo-inverse, moves rows in their last bits while every random
stream stays as it was, so compare such rows by their relative change.  The
grid is 224 rows: the Gaussian toy (heterogeneous and homogeneous workers,
K = 6 / T = 600 and K = 10 / T = 2000, at 0, 10 and 20 dB) and
probit-synthetic (N = 800, K = 4, T = 200, 100 test rows, equal and
zeta = 0.5 partitions, at 0 and 20 dB), 2 trials each, all 7 schemes.  Each
line gives err2, kl and computed_gradients by ``repr``; wall time is left
out because it differs between runs.  The script calls only
``parse_config`` and ``run_experiment``, so it runs against older
checkouts too, and it writes nothing but stdout.
"""

from wcmc.harness.config import parse_config
from wcmc.harness.runner import run_experiment

TOY_SCHEMES = {
    "gcmc": {},
    "wgcmc-oma": {},
    "wgcmc-noma": {},
    "wvcmc-oma": {"eta": 5e-3, "t_m": 40},
    "wvcmc-noma": {"eta": 1e-3, "t_m": 30},
    "sgld": {"iterations": 2000, "burn_in": 200},
    "best-single": {},
}

PROBIT_SCHEMES = {
    "gcmc": {},
    "wgcmc-oma": {},
    "wgcmc-noma": {},
    "wvcmc-oma": {"eta": 1e-5, "t_m": 10},
    "wvcmc-noma": {"eta": 1e-5, "t_m": 10, "n_b": 200},
    "sgld": {"n_b": 100, "iterations": 2000, "burn_in": 200},
    "best-single": {},
}


def grid():
    """(label, config document) for every point of the grid."""
    for family in ("heterogeneous", "homogeneous"):
        for k, t in ((6, 600), (10, 2000)):
            for snr in (0.0, 10.0, 20.0):
                doc = {
                    "scenario": "gaussian-toy",
                    "n_workers": k,
                    "t_blocks": t,
                    "snr_db": snr,
                    "trials": 2,
                    "seed": 100,
                    "subposteriors": family,
                    "schemes": TOY_SCHEMES,
                }
                yield f"toy {family} K={k} T={t} snr={snr}", doc
    for partition in ({"rule": "equal"}, {"rule": "heterogeneous", "zeta": 0.5}):
        for snr in (0.0, 20.0):
            doc = {
                "scenario": "probit-synthetic",
                "n_workers": 4,
                "t_blocks": 200,
                "snr_db": snr,
                "trials": 2,
                "seed": 200,
                "partition": partition,
                "data": {"n": 800, "n_test": 100},
                "reference": {"n_samples": 2000, "burn_in": 50},
                "schemes": PROBIT_SCHEMES,
            }
            zeta = partition.get("zeta", 0.0)
            yield f"probit {partition['rule']} zeta={zeta} snr={snr}", doc


def main() -> None:
    for label, doc in grid():
        for row in run_experiment(parse_config(doc)):
            print(
                f"{label} trial={row['trial']} {row['scheme']}: err2={row['err2']!r}"
                f" kl={row['kl']!r} computed_gradients={row['computed_gradients']!r}"
            )


if __name__ == "__main__":
    main()
