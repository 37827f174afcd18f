"""Tables III/IV: instruction overheads of the modified binaries, and
Tables V/VI: the modified-code details.

Overhead = retired-instruction factor of the modified binary for the same
work.  Paper ranges: CFD 0.90-1.86, DFD 1.01-1.36 (Table III); CFD(TQ)
1.00-1.05 (Table IV).  Functional execution suffices (no timing needed).
"""

from benchmarks.common import CFD_BQ_APPS, TQ_APPS, build, fmt, print_figure
from repro.arch.executor import run_program
from repro.workloads import get_workload

_COUNT_CACHE = {}


def _retired(workload, variant, input_name):
    key = (workload, variant, input_name)
    if key not in _COUNT_CACHE:
        built = build(workload, variant, input_name)
        _COUNT_CACHE[key] = run_program(
            built.program, max_instructions=50_000_000
        ).retired
    return _COUNT_CACHE[key]


def _overheads():
    rows = []
    for workload, input_name in CFD_BQ_APPS:
        base = _retired(workload, "base", input_name)
        entry = {"app": "%s(%s)" % (workload, input_name), "base": base}
        for variant in ("cfd", "cfd_plus", "dfd"):
            if variant in get_workload(workload).variants:
                entry[variant] = _retired(workload, variant, input_name) / base
        rows.append(entry)
    tq_rows = []
    for workload, input_name in TQ_APPS:
        base = _retired(workload, "base", input_name)
        entry = {"app": "%s(%s)" % (workload, input_name)}
        for variant in ("tq", "bq_tq"):
            if variant in get_workload(workload).variants:
                entry[variant] = _retired(workload, variant, input_name) / base
        tq_rows.append(entry)
    return rows, tq_rows


def test_table3_and_table4_overheads(benchmark):
    rows, tq_rows = benchmark.pedantic(_overheads, rounds=1, iterations=1)
    print_figure(
        "Table III — CFD/DFD retired-instruction overhead factors",
        ["application", "cfd", "cfd_plus", "dfd"],
        [
            (
                r["app"],
                fmt(r.get("cfd", float("nan"))),
                fmt(r.get("cfd_plus", float("nan"))),
                fmt(r.get("dfd", float("nan"))),
            )
            for r in rows
        ],
        notes="paper: CFD 0.90-1.86; DFD 1.01-1.36",
    )
    print_figure(
        "Table IV — CFD(TQ) overhead factors",
        ["application", "tq", "bq_tq"],
        [
            (r["app"], fmt(r.get("tq", float("nan"))),
             fmt(r.get("bq_tq", float("nan"))))
            for r in tq_rows
        ],
        notes="paper: TQ ~1.00-1.05",
    )
    # Tables V/VI: modified-code metadata
    from repro.workloads import all_workloads

    print_figure(
        "Tables V/VI — modified-code details",
        ["workload", "suite", "class", "region", "time-split"],
        [
            (w.name, w.suite, w.branch_class, w.paper_region[:44],
             fmt(w.time_fraction))
            for w in all_workloads()
        ],
    )

    cfd_overheads = [r["cfd"] for r in rows if "cfd" in r]
    assert all(1.0 <= o < 3.2 for o in cfd_overheads)
    dfd_overheads = [r["dfd"] for r in rows if "dfd" in r]
    assert all(1.0 < o < 2.0 for o in dfd_overheads)
    for r in rows:
        if "cfd" in r and "dfd" in r:
            assert r["dfd"] < r["cfd"]  # DFD is the lower-overhead derivative
    tq_overheads = [r["tq"] for r in tq_rows if "tq" in r]
    # Branch_on_TCR decrements the trip counter implicitly, so TQ can even
    # shave instructions (as the paper's soplex CFD overhead of 0.90 shows
    # for the BQ case).
    assert all(0.9 <= o < 1.25 for o in tq_overheads)  # paper: ~1.00-1.05
