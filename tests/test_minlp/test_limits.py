"""Limits bind inside a barrier solve, not only between B&B nodes.

The barrier polls the B&B's stop predicate (``time_limit`` and
``check_hook``) once per Newton iteration, so a limit that expires during
a long relaxation ends the search within one iteration, with the
``TIME_LIMIT`` status a limit seen between nodes gives.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cesm import make_case
from repro.hslb import HSLBPipeline
from repro.hslb.layout_models import layout_model_for_case
from repro.minlp import MINLPOptions, solve_lpnlp, solve_nlp_bnb
from repro.minlp.result import MINLPStatus

SRC = Path(__file__).resolve().parents[2] / "src"

# 1 deg / 2048 nodes, layout 1: the irregular atm/ocn sets become about
# 1900 SOS binaries, and the root relaxation alone runs far past 2 s.
_DEADLINE_SCRIPT = """
import json, time
from repro.cesm import make_case
from repro.hslb import HSLBPipeline
from repro.hslb.layout_models import layout_model_for_case
from repro.minlp import MINLPOptions, solve_nlp_bnb

case = make_case("1deg", 2048, layout=1, seed=0)
pipeline = HSLBPipeline(case)
perf = {c: f.model for c, f in pipeline.fit(pipeline.gather()).items()}
model = layout_model_for_case(case, perf)
t0 = time.monotonic()
result = solve_nlp_bnb(model, MINLPOptions(time_limit=2.0))
print(json.dumps({"seconds": time.monotonic() - t0,
                  "status": result.status.value,
                  "message": result.message}))
"""


def test_time_limit_binds_inside_the_root_relaxation():
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    try:
        out = subprocess.run([sys.executable, "-c", _DEADLINE_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("time_limit=2 did not stop the B&B within 60 s")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["status"] == MINLPStatus.TIME_LIMIT.value
    assert report["message"] == "time limit reached"
    assert report["seconds"] <= 3.5


@pytest.fixture(scope="module")
def model():
    case = make_case("1deg", 128, layout=1, seed=0)
    pipeline = HSLBPipeline(case)
    perf = {c: f.model for c, f in pipeline.fit(pipeline.gather()).items()}
    return layout_model_for_case(case, perf)


@pytest.mark.parametrize("solver", (solve_nlp_bnb, solve_lpnlp), ids=("bnb", "lpnlp"))
def test_check_hook_binds_within_one_newton_iteration(model, solver):
    """A hook that trips on its second poll stops the solve inside its
    first barrier solve (the root relaxation for bnb, the seed NLP for
    lpnlp), before any node finishes."""
    polls = []

    def hook():
        polls.append(None)
        return len(polls) >= 2

    result = solver(model, MINLPOptions(check_hook=hook))
    assert result.status is MINLPStatus.TIME_LIMIT
    assert result.message == "stopped by check hook"
    assert len(polls) == 2
    assert result.solution is None
    # The interrupted node stays open: no bound is claimed for it.
    assert result.best_bound == -math.inf
