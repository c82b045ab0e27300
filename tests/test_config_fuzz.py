"""Mutation fuzzing of the shipped configs through ``vbpg solve``,
``vbpg compare``, ``vbpg probe`` and ``vbpg check --config``: whatever
single value a document holds, the command ends in a documented exit code
with no traceback, and the manifest is written; a solver value of the
wrong type ends in one config parse error."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbpg.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DOCS = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
MAX_ITERS = 20
MAX_SAMPLES = 60

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
    """``doc`` with at most MAX_ITERS solver iterations and MAX_SAMPLES
    probe samples, so that a mutated value costs the same time as a
    shipped one."""
    for section, key, cap in (("solver", "max_iters", MAX_ITERS),
                              ("probe", "n_samples", MAX_SAMPLES)):
        part = doc.get(section)
        if isinstance(part, dict):
            n = part.get(key, cap)
            if isinstance(n, (int, float)) and not isinstance(n, bool):
                part[key] = min(n, cap)
    return doc


def run_in_process(command, cfg):
    """Exit code and stderr of ``vbpg command`` on ``cfg``, and whether
    the manifest was written."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        return code, err.getvalue(), (out / "manifest.json").exists()


def mutated_run(data, commands):
    """Run one of ``commands`` on a shipped config with one value replaced
    and check that it ends cleanly."""
    name = data.draw(st.sampled_from(sorted(DOCS)))
    doc = DOCS[name]
    path = data.draw(st.sampled_from(list(value_paths(doc))))
    cfg = capped(replaced(doc, path, data.draw(JSON_VALUES)))
    command = data.draw(st.sampled_from(commands))
    code, err, manifest = run_in_process(command, cfg)
    assert code in range(6), (code, err)
    assert "Traceback" not in err
    assert manifest


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_ends_in_documented_exit(data):
    mutated_run(data, ["solve", "compare"])


@pytest.mark.parametrize("command", ["probe", "check"])
@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_probe_and_check_end_in_documented_exit(command, data):
    mutated_run(data, [command])


WRONG_TYPE = (st.booleans() | st.text(max_size=6)
              | st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3))
FRACTION = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: v != int(v))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_wrong_solver_value_is_a_parse_error(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    key = data.draw(st.sampled_from(
        ["max_iters", "trace_every", "step_tol", "epsilon"]))
    integer = key in ("max_iters", "trace_every")
    value = data.draw(WRONG_TYPE | FRACTION if integer else WRONG_TYPE)
    code, err, _ = run_in_process(
        "solve", replaced(DOCS[name], ("solver", key), value))
    assert code == 1, (key, value, err)
    assert err.startswith("config parse error: solver."), err
    assert err.count("\n") == 1
