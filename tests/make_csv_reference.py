"""Record the outputs that ``tests/test_csv_reference.py`` checks.

    PYTHONPATH=src python3 tests/make_csv_reference.py

Runs ``fdjcas run`` in process for every scheme on a small grid, and one
``monte_carlo_mse`` study, and writes the sha256 and rows of every output
file to ``tests/data/csv_reference.json``, with the numpy and BLAS they were
made under.  Re-record only when a change is meant to move the outputs, and
say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from fdjcas.cli import main as fdjcas_main
from fdjcas.experiments import SCHEMES, ExperimentConfig, monte_carlo_mse
from fdjcas.steering import PathCoefficients

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "csv_reference.json"
# Four seed indices at 0, 10 and 30 dB run as one lockstep batch per process,
# whose cells stop at different outer iterations; seed index 1 at 0 dB is
# infeasible for the sensing schemes.  Two MUSIC trials per sensing cell.
RUN_ARGS = ("--snr", "0,10,30", "--seeds", "4", "--trials", "8")
STUDY = {"snr_grid_db": (10.0, 20.0), "mse_trials": 8}
STUDY_ANGLE_DEG = 20.0
STUDY_COEFFS_SEED = (0, 7)
STUDY_HEADER = ("snr_db", "mse_rad2", "crb_rad2", "trials")
# how far a value may move when numpy or its BLAS differs from the stamp
REL_TOL = 1e-6


def environment() -> dict:
    """The numpy version and BLAS the outputs are made under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"numpy": np.__version__, "blas": blas}


def _entry(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": list(csv.reader(io.StringIO(data.decode())))}


def outputs() -> dict:
    """``{file: {"sha256": ..., "rows": [...]}}`` of every output: each
    scheme's files as ``<scheme>/<name>.csv``, and the study's rows as
    ``monte_carlo_mse.csv``, rendered as ``fdjcas run`` renders numbers."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        # an empty config file gives the defaults, whatever $FDJCAS_CONFIG says
        defaults = Path(tmp) / "defaults.yaml"
        defaults.write_text("", encoding="utf-8")
        for scheme in SCHEMES:
            out = Path(tmp) / scheme
            with contextlib.redirect_stdout(io.StringIO()):
                code = fdjcas_main(["run", str(defaults), "--scheme", scheme, *RUN_ARGS, "--out", str(out)])
            if code:
                raise RuntimeError(f"fdjcas run --scheme {scheme} exited with {code}")
            for path in sorted(out.iterdir()):
                files[f"{scheme}/{path.name}"] = _entry(path.read_bytes())
    rows = monte_carlo_mse(
        ExperimentConfig(**STUDY), np.deg2rad(STUDY_ANGLE_DEG), PathCoefficients.random(list(STUDY_COEFFS_SEED))
    )
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(STUDY_HEADER)
    writer.writerows([repr(row[key]) for key in STUDY_HEADER] for row in rows)
    files["monte_carlo_mse.csv"] = _entry(text.getvalue().encode())
    return files


def main() -> int:
    reference = {"environment": environment(), "rel_tol": REL_TOL, "files": outputs()}
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"{len(reference['files'])} files written to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
