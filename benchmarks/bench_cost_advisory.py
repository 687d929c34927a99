"""Cost-model validation: predicted-fastest vs measured-fastest backend.

The analytic cost model (``repro.cost.model``) prices every engine backend
from static features alone; its one falsifiable claim is that the *ordering*
it predicts matches reality.  This harness measures the live backends
(reference, bitpacked, the lazy-DFA hybrid, and — on DFA-safe networks —
the table-driven dfa engine) on each application's parent network and
checks that the model's predicted-fastest among the backends measured is
the measured-fastest, per application::

    PYTHONPATH=src python benchmarks/bench_cost_advisory.py          # write BENCH_cost.json
    PYTHONPATH=src python benchmarks/bench_cost_advisory.py --check  # CI smoke assertion

``--check`` re-measures and asserts the agreement fraction stays at or above
``MIN_AGREEMENT`` (an acceptance criterion: >= 80% of the swept apps).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

from repro.cost import advise_network, rank_backends
from repro.sim import (
    compile_dfa,
    compile_lazydfa,
    compile_network,
    dfa_feasible,
    dfa_run,
    lazydfa_run,
    reference_run,
    run,
)
from repro.workloads.registry import get_app

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cost.json"
#: The CI family spread (regex, IDS, Hamming, Levenshtein, start-of-data).
APPS = ("Bro217", "Snort", "ER", "HM", "LV", "SPM", "Fermi", "CAV")
SCALE, INPUT_LEN = 64, 2048
#: Acceptance floor: the model must pick the measured winner on at least
#: this fraction of the swept applications.
MIN_AGREEMENT = 0.8


@pytest.fixture(scope="module")
def bro_network():
    return get_app("Bro217").build(SCALE)


def test_advise_network_cost(benchmark, bro_network):
    advisory = benchmark(lambda: advise_network(bro_network))
    assert advisory.recommended


def _us_per_byte(fn, n_bytes, repeats=3):
    """Best-of-``repeats`` microseconds per input byte for ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return best * 1e6 / n_bytes


def _measure_app(abbr, repeats=3):
    """Measured us/B per live backend plus the model's prediction."""
    spec = get_app(abbr)
    network = spec.build(SCALE)
    data = spec.make_input(network, INPUT_LEN)
    compiled = compile_network(network)
    n = len(data)

    # "dfa" only where the network is DFA-safe within the default budgets;
    # "lazydfa" everywhere — the hybrid needs no proof.
    measured = {
        "reference": _us_per_byte(lambda: reference_run(network, data), n, repeats),
        "bitpacked": _us_per_byte(
            lambda: run(compiled, data, track_enabled=False), n, repeats
        ),
    }
    if dfa_feasible(network):
        dfa = compile_dfa(network)
        dfa_run(dfa, data)  # warm the lazy flat-table build
        measured["dfa"] = _us_per_byte(lambda: dfa_run(dfa, data), n, repeats)
    lazy = compile_lazydfa(network)
    lazydfa_run(lazy, data)  # converge the subset cache
    measured["lazydfa"] = _us_per_byte(
        lambda: lazydfa_run(lazy, data), n, repeats
    )
    advisory = advise_network(network, horizon=INPUT_LEN)
    # Compare over the backends actually measured, so an app without a
    # feasible DFA still scores the ordering of the rest.
    predicted = {
        name: cost for name, cost in advisory.costs.items()
        if name in measured and cost is not None
    }
    predicted_best = rank_backends(predicted)[0][0]
    measured_best = min(measured, key=measured.get)
    return {
        "app": abbr,
        "n_states": network.n_states,
        "measured_us_per_b": {k: round(v, 3) for k, v in measured.items()},
        "predicted_us_per_b": {k: round(v, 3) for k, v in predicted.items()},
        "predicted_best": predicted_best,
        "measured_best": measured_best,
        "agree": predicted_best == measured_best,
    }


def collect_metrics(repeats=3, apps=APPS):
    rows = [_measure_app(abbr, repeats) for abbr in apps]
    agreement = sum(1 for row in rows if row["agree"]) / len(rows)
    return {
        "workload": {
            "scale": SCALE,
            "input_len": INPUT_LEN,
            "apps": list(apps),
        },
        "agreement_fraction": round(agreement, 3),
        "apps": rows,
    }


def _check(live):
    failures = []
    if live["agreement_fraction"] < MIN_AGREEMENT:
        disagreed = [row["app"] for row in live["apps"] if not row["agree"]]
        failures.append(
            f"predicted-fastest matched measured-fastest on only "
            f"{live['agreement_fraction']:.0%} of apps (floor "
            f"{MIN_AGREEMENT:.0%}); disagreed: {', '.join(disagreed)}"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="cost-model validation")
    parser.add_argument("--check", action="store_true",
                        help="re-measure and assert agreement >= "
                             f"{MIN_AGREEMENT:.0%} (exit 1 on failure)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per backend (best-of)")
    args = parser.parse_args(argv)

    live = collect_metrics(repeats=args.repeats)
    print(json.dumps(live, indent=2))
    if not args.check:
        BENCH_PATH.write_text(json.dumps(live, indent=2) + "\n")
        print(f"wrote {BENCH_PATH}", file=sys.stderr)
        return 0

    failures = _check(live)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"cost-model check passed: {live['agreement_fraction']:.0%} "
              "agreement", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
