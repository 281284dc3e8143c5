"""The fedte names perfbench wraps: each one exists, and restoring unwraps it.

perfbench/tracing.py and perfbench/measure.py patch fedte's attributes by
name, so renaming or deleting one breaks the benchmark. This test fails on
that within tier-1, where otherwise only `perfbench/run.py --self-test`
would show it.
"""

import inspect
import os
import sys

import fedte.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import measure  # noqa: E402  (perfbench/measure.py, the benchmark's clock)
import tracing  # noqa: E402  (perfbench/tracing.py, the benchmark's wrappers)

# every module and class whose attributes perfbench patches
OWNERS = (fedte.cli, fedte.orchestrator, fedte.analysis, fedte.penalties, fedte.nn.Network,
          fedte.data.Dataset, fedte.penalties.Prox, fedte.penalties.FisherDiag,
          fedte.target.TargetTracker)


def _attributes(owner):
    # static lookup: a method inherited before and set on the class by restore
    # is the same function, and a classmethod is not bound anew at each access
    return {name: inspect.getattr_static(owner, name) for name in dir(owner)}


def test_perfbench_wraps_fedte_names_and_restores_each_one():
    before = [_attributes(owner) for owner in OWNERS]
    saved = []
    try:
        saved += tracing.install(fedte, tracing.Recorder())
        saved += measure.install_clock(fedte, measure.Clock(), 2)
        unwrapped = [(owner, attr) for owner, attr, fn in saved if getattr(owner, attr) is fn]
    finally:
        tracing.restore(saved)
    assert saved and unwrapped == []
    assert {owner for owner, _, _ in saved} <= set(OWNERS)
    for owner, old in zip(OWNERS, before):
        new = _attributes(owner)
        assert new.keys() == old.keys(), owner
        assert [name for name in old if new[name] is not old[name]] == [], owner
