"""Mutation fuzzing of the shipped configs through ``vbpg solve`` and
``vbpg compare``: whatever single value a document holds, the command ends
in a documented exit code with no traceback, and the manifest is written."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vbpg.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DOCS = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
MAX_ITERS = 20

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=6)


def value_paths(doc, prefix=()):
    """The key/index path of every value below the top level."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def capped(doc):
    """``doc`` with at most MAX_ITERS solver iterations, so that a mutated
    value costs the same time as a shipped one."""
    solver = doc.get("solver")
    if isinstance(solver, dict):
        n = solver.get("max_iters", MAX_ITERS)
        if isinstance(n, (int, float)) and not isinstance(n, bool):
            solver["max_iters"] = min(n, MAX_ITERS)
    return doc


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_ends_in_documented_exit(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    doc = DOCS[name]
    path = data.draw(st.sampled_from(list(value_paths(doc))))
    cfg = capped(replaced(doc, path, data.draw(JSON_VALUES)))
    command = data.draw(st.sampled_from(["solve", "compare"]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code in range(6), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (out / "manifest.json").exists()
