"""The outputs of ``fdjcas run`` and ``monte_carlo_mse`` on a small grid
equal the stored reference that ``tests/make_csv_reference.py`` records:
byte for byte under the numpy and BLAS it was recorded with, and within its
relative tolerance under others."""

import json
import math

import make_csv_reference as recorder


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def largest_moves(reference_rows, rows) -> dict:
    """The largest relative move of each column between two CSV tables
    (header first); inf where a row count, an empty cell or a text cell
    differs."""
    header = reference_rows[0]
    if len(rows) != len(reference_rows) or rows[0] != header:
        return {"rows": math.inf}
    moves = dict.fromkeys(header, 0.0)
    for row, ref in zip(rows[1:], reference_rows[1:]):
        for column, text, ref_text in zip(header, row, ref):
            if text == ref_text:
                continue
            x, y = _number(text), _number(ref_text)
            move = math.inf if x is None or y is None else abs(x - y) / max(abs(y), 1e-300)
            moves[column] = max(moves[column], move)
    return {column: move for column, move in moves.items() if move}


def test_outputs_match_the_stored_reference():
    reference = json.loads(recorder.REFERENCE_PATH.read_text(encoding="utf-8"))
    files = recorder.outputs()
    assert sorted(files) == sorted(reference["files"])
    moves = {
        name: largest_moves(reference["files"][name]["rows"], entry["rows"])
        for name, entry in files.items()
        if entry["sha256"] != reference["files"][name]["sha256"]
    }
    if reference["environment"] == recorder.environment():
        assert not moves, f"outputs differ from the reference; largest relative move per column: {moves}"
    tol = reference["rel_tol"]
    over = {name: {c: m for c, m in cols.items() if not m <= tol} for name, cols in moves.items()}
    assert not any(over.values()), (
        f"under numpy/BLAS {recorder.environment()}, outputs move more than {tol} relative from the "
        f"reference recorded under {reference['environment']}: {over}"
    )
