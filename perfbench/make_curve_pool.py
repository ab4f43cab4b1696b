"""Write curve_pool.json: the prime-order curves of the invalid-curve-cold workload.

Every operation of that workload must meet a field size the process has
never seen, so that the curve module's tables and its invalid-point cache
start cold, as in a fresh `hlslab attack invalid-curve` process. Making the
curves in the measured process would warm exactly those caches, so the pool
is made here, in a process of its own, and committed.

The pool holds STRATA * PER_STRATUM curves with pairwise distinct q in
[2^15, 2^16). The cold attack's cost varies tenfold from curve to curve:
the companion-curve sweep sums q quadratic characters for every b' it
scans, and on some companion curves it also multiplies nearly every point
by N'/g before moving on. So each curve's cold default_g_budget() runs
once here under the benchmark's tracer, its cost is estimated from the
counted calls as q * (b' scanned) + SCALAR_MUL_TERMS * (scalar
multiplications), the curves are ranked by that cost and cut into STRATA
equal strata, and a round of the workload takes one curve from each
stratum: every round meets the same spread of costs whatever the seed,
which keeps a run's median and tail steady.

Run from the repository root (about six minutes on one core):

    python3 perfbench/make_curve_pool.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hlslab import scenarios  # noqa: E402
from hlslab.curve import curve_to_dict, search_prime_order_curve  # noqa: E402

import tracing  # noqa: E402

STRATA = 8
PER_STRATUM = 48
Q_MIN = 1 << 15
Q_MAX = (1 << 16) - 1
POOL_SEED = 20100217
# a 14-bit scalar multiplication takes about as long as 240 terms of a
# character sum (Python 3.11, measured on mid16)
SCALAR_MUL_TERMS = 240


def sweep_cost(e, tracer: tracing.Tracer) -> int:
    """Estimated cold cost of default_g_budget(e), in character-sum terms."""
    tracer.spans.clear()
    scenarios.default_g_budget(e)
    names = [span[0] for span in tracer.spans]
    # is_singular is asked once for every b' the sweep scans
    return e.q * names.count("curve.is_singular") + SCALAR_MUL_TERMS * names.count(
        "curve.scalar_mul"
    )


def make_pool() -> dict:
    rng = Random(POOL_SEED)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    curves = {}
    while len(curves) < STRATA * PER_STRATUM:
        e = search_prime_order_curve(Q_MIN, Q_MAX, rng)
        if e.q not in curves:
            curves[e.q] = (sweep_cost(e, tracer), e)
    ranked = sorted(curves.values(), key=lambda ce: (ce[0], ce[1].q))
    strata = []
    for i in range(STRATA):
        stratum = ranked[i * PER_STRATUM:(i + 1) * PER_STRATUM]
        strata.append([dict(curve_to_dict(e), sweep_cost=cost) for cost, e in stratum])
    return {"seed": POOL_SEED, "q_range": [Q_MIN, Q_MAX], "strata": strata}


if __name__ == "__main__":
    out = Path(__file__).resolve().parent / "curve_pool.json"
    out.write_text(json.dumps(make_pool(), indent=1) + "\n")
    print(f"wrote {out}")
