"""Child process that runs NLP-based B&B solves for the benchmark.

Protocol: one JSON request per stdin line, one JSON reply per stdout
line.  The parent kills this process when a solve overruns its wall
budget (``MINLPOptions.time_limit`` is not checked inside a barrier
solve, so only an outside kill bounds it) and starts a fresh one.

Request: ``{"case": [resolution, nodes, unconstrained_ocean, layout,
seed], "curves": {component: [a, b, c, d]}, "trace": bool}``.
Reply: ``{"ok": true, "allocation": {...}, "objective": x, "counts":
{...}, "spans": [...]}`` or ``{"ok": false, "error": "..."}``.

Run by the benchmark as ``python3 hslbbench/bnb_worker.py`` with the
checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
import traceback

from harness import Tracer
from layers import minlp_counts, traced


def solve(request: dict) -> dict:
    from repro.cesm import ComponentId, make_case
    from repro.fitting import PerfModel
    from repro.hslb import solve_allocation

    resolution, nodes, unconstrained, layout, seed = request["case"]
    case = make_case(resolution, nodes, layout=layout,
                     unconstrained_ocean=unconstrained, seed=seed)
    perf = {ComponentId(c): PerfModel(*p) for c, p in request["curves"].items()}
    tracer = Tracer()
    if request.get("trace"):
        with traced(tracer):
            outcome = solve_allocation(case, perf, method="bnb")
    else:
        outcome = solve_allocation(case, perf, method="bnb")
    return {
        "ok": True,
        "allocation": {c.value: int(n) for c, n in outcome.allocation.items()},
        "objective": outcome.objective_value,
        "counts": minlp_counts(outcome.solver_result),
        "spans": [span.to_list() for span in tracer.spans],
    }


def main() -> int:
    import repro.hslb  # noqa: F401  (pay the import before reporting ready)

    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        try:
            reply = solve(json.loads(line))
        except Exception as exc:  # the boundary: report, keep serving
            traceback.print_exc()
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
