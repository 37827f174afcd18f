"""Bench-history database and the ``repro bench-diff`` regression gate.

``BENCH_speed.json`` records one point of the simulator's performance
trajectory; this module makes the trajectory itself first-class:

* ``BENCH_history.jsonl`` — an append-only, schema-versioned JSONL
  database of speed measurements.  Each :func:`append_history` call adds
  one line distilled from a ``run_speed_benchmark`` payload (geomean +
  per-case KIPS, host/python provenance); the loader shares the
  checkpoint journal's tolerance rules (bad/torn lines are skipped,
  foreign versions ignored).
* :func:`bench_diff` — the regression detector: compares a *current*
  measurement against a *baseline* and flags (a) any per-case slowdown
  beyond ``case_tolerance`` and (b) a geomean slowdown beyond
  ``geomean_tolerance`` — the geomean check catches broad erosion that
  stays under every per-case threshold.  The report is JSON-ready and
  drives the CLI's ``EXIT_PERF_REGRESSION`` (6) exit code, so the
  1.548x banked in ``BENCH_speed.json`` cannot silently erode.

Both sides of the diff accept either artifact kind: a
``repro.bench_speed`` payload (``BENCH_speed.json``) or a history file
(pick an entry with ``select='first'|'last'|'best'``).
"""

import json
import time

from repro.fsio import append_record, read_records

#: Bump when the history line schema changes; old lines are then ignored.
HISTORY_VERSION = 1

#: Default history database filename (next to BENCH_speed.json).
DEFAULT_HISTORY_NAME = "BENCH_history.jsonl"

#: Default thresholds: a case may jitter 15% before it is a regression;
#: the geomean may drop 5%.  Tuned so single-case noise passes but a
#: 20% per-case slowdown or a broad across-the-board sag is flagged.
CASE_TOLERANCE = 0.15
GEOMEAN_TOLERANCE = 0.05


def history_entry(payload, label=None, recorded=None, extra=None):
    """Distil one ``run_speed_benchmark`` payload into a history line."""
    entry = {
        "kind": "repro.bench_history",
        "version": HISTORY_VERSION,
        "recorded": time.time() if recorded is None else recorded,
        "label": label,
        "python": payload.get("python"),
        "repeats": payload.get("repeats"),
        "geomean_kips": payload["geomean_kips"],
        "cases": {
            name: {
                "kips": case["kips"],
                "seconds": case.get("seconds"),
                "retired": case.get("retired"),
                "max_instructions": case.get("max_instructions"),
            }
            for name, case in payload.get("cases", {}).items()
        },
    }
    if extra:
        entry.update(extra)
    return entry


def append_history(path, entry):
    """Append one entry line to the history database; returns *path*.

    The history claims no durability (a lost line costs one
    measurement), so the line is not fsync'd; a tail torn by an
    interrupted append is still sealed first, so this entry survives.
    """
    append_record(path, entry, durable=False)
    return path


def load_history(path):
    """Every parseable current-version entry of a history file, in order.

    :func:`~repro.fsio.read_records` reads **bytes** and decodes each
    line on its own (the journal/WAL tolerance rules): an append
    interrupted inside a multi-byte UTF-8 sequence costs exactly that
    line — a text-mode read would raise ``UnicodeDecodeError`` for the
    whole history.
    """
    records, _ = read_records(path)
    return [
        doc for doc in records
        if doc.get("kind") == "repro.bench_history"
        and doc.get("version") == HISTORY_VERSION
        and isinstance(doc.get("cases"), dict)
        and isinstance(doc.get("geomean_kips"), (int, float))
    ]


def _measurement_from_entry(entry, source):
    return {
        "source": source,
        "label": entry.get("label"),
        "recorded": entry.get("recorded"),
        "geomean_kips": entry["geomean_kips"],
        "cases": {
            name: case["kips"] for name, case in entry["cases"].items()
            if isinstance(case, dict) and
            isinstance(case.get("kips"), (int, float))
        },
    }


def _measurement_from_speed_payload(payload, source):
    return {
        "source": source,
        "label": payload.get("baseline", {}).get("label"),
        "recorded": None,
        "geomean_kips": payload["geomean_kips"],
        "cases": {
            name: case["kips"]
            for name, case in payload.get("cases", {}).items()
            if isinstance(case.get("kips"), (int, float))
        },
    }


def load_measurement(path, select="last", label=None):
    """A comparable ``{geomean_kips, cases}`` measurement from *path*.

    Accepts a ``BENCH_speed.json``-style payload or a
    ``BENCH_history.jsonl`` database.  For a history file, *select*
    picks the entry: ``first`` (the oldest), ``last`` (the newest) or
    ``best`` (highest geomean — the high-water mark to defend).
    *label*, when given, first narrows the history to entries whose
    ``label`` matches exactly (``bench-diff --baseline-label``) — so a
    named measurement (say ``"v1.2-release"``) can serve as the pinned
    baseline regardless of what was appended after it; *select* then
    picks among the matches.  Raises ``ValueError`` when nothing usable
    is found.
    """
    try:
        # Bytes, not text: a torn history tail may end mid-UTF-8 and
        # must fall through to the per-line-tolerant history loader,
        # not raise UnicodeDecodeError here.
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc)) from exc
    # A single JSON document is an artifact; anything else (including a
    # JSONL history, whose *lines* are JSON) goes to the history loader.
    try:
        payload = json.loads(blob)
    except (UnicodeDecodeError, ValueError):
        payload = None
    if isinstance(payload, dict):
        if payload.get("kind") == "repro.bench_speed":
            if label is not None:
                raise ValueError(
                    "%s: a label selector needs a history file, not a "
                    "single-measurement artifact" % path
                )
            return _measurement_from_speed_payload(payload, path)
        if payload.get("kind") == "repro.bench_history":
            # A one-line history file parses as a single document; the
            # label selector still applies to its lone entry.
            if label is not None and payload.get("label") != label:
                raise ValueError(
                    "%s holds no bench-history entries labelled %r"
                    % (path, label)
                )
            return _measurement_from_entry(payload, path)
        raise ValueError(
            "%s: unsupported artifact kind %r" % (path, payload.get("kind"))
        )
    entries = load_history(path)
    if label is not None:
        entries = [e for e in entries if e.get("label") == label]
        if not entries:
            raise ValueError(
                "%s holds no bench-history entries labelled %r"
                % (path, label)
            )
    if not entries:
        raise ValueError("%s holds no usable bench-history entries" % path)
    if select == "first":
        entry = entries[0]
    elif select == "best":
        entry = max(entries, key=lambda e: e["geomean_kips"])
    elif select == "last":
        entry = entries[-1]
    else:
        raise ValueError("unknown history selector %r" % (select,))
    selector = select if label is None else "%s=%s" % (label, select)
    return _measurement_from_entry(entry, "%s[%s]" % (path, selector))


def bench_diff(current, baseline, case_tolerance=CASE_TOLERANCE,
               geomean_tolerance=GEOMEAN_TOLERANCE):
    """Compare two measurements; returns the regression report dict.

    A case regresses when ``current < baseline * (1 - case_tolerance)``;
    the geomean check uses ``geomean_tolerance`` the same way.  Cases
    present on only one side are reported (``added``/``removed``) but
    never flagged — a renamed case must not masquerade as a speedup.
    ``report["ok"]`` is the gate verdict.
    """
    case_rows = {}
    regressions = []
    shared = sorted(set(current["cases"]) & set(baseline["cases"]))
    for name in shared:
        cur, base = current["cases"][name], baseline["cases"][name]
        ratio = (cur / base) if base else None
        regressed = bool(base) and cur < base * (1.0 - case_tolerance)
        case_rows[name] = {
            "current_kips": cur,
            "baseline_kips": base,
            "ratio": round(ratio, 4) if ratio is not None else None,
            "regressed": regressed,
        }
        if regressed:
            regressions.append(
                "case %s: %.2f KIPS vs baseline %.2f (%.1f%% slower, "
                "tolerance %.0f%%)" % (
                    name, cur, base, 100.0 * (1.0 - cur / base),
                    100.0 * case_tolerance,
                )
            )
    cur_geo, base_geo = current["geomean_kips"], baseline["geomean_kips"]
    geo_ratio = (cur_geo / base_geo) if base_geo else None
    geo_regressed = bool(base_geo) and (
        cur_geo < base_geo * (1.0 - geomean_tolerance)
    )
    if geo_regressed:
        regressions.append(
            "geomean: %.2f KIPS vs baseline %.2f (%.1f%% slower, "
            "tolerance %.0f%%)" % (
                cur_geo, base_geo, 100.0 * (1.0 - cur_geo / base_geo),
                100.0 * geomean_tolerance,
            )
        )
    return {
        "kind": "repro.bench_diff",
        "version": HISTORY_VERSION,
        "current": {"source": current.get("source"),
                    "label": current.get("label"),
                    "geomean_kips": cur_geo},
        "baseline": {"source": baseline.get("source"),
                     "label": baseline.get("label"),
                     "geomean_kips": base_geo},
        "thresholds": {"case_tolerance": case_tolerance,
                       "geomean_tolerance": geomean_tolerance},
        "geomean": {
            "current_kips": cur_geo,
            "baseline_kips": base_geo,
            "ratio": round(geo_ratio, 4) if geo_ratio is not None else None,
            "regressed": geo_regressed,
        },
        "cases": case_rows,
        "added_cases": sorted(set(current["cases"]) - set(baseline["cases"])),
        "removed_cases": sorted(set(baseline["cases"]) - set(current["cases"])),
        "regressions": regressions,
        "ok": not regressions,
    }


def format_diff(report):
    """Human-oriented rendering of a :func:`bench_diff` report."""
    lines = []
    lines.append("bench-diff: %s vs %s" % (
        report["current"]["source"] or "current",
        report["baseline"]["source"] or "baseline",
    ))
    for name, row in sorted(report["cases"].items()):
        mark = "REGRESSED" if row["regressed"] else "ok"
        lines.append("  %-24s %8.2f vs %8.2f  (x%.3f)  %s" % (
            name, row["current_kips"], row["baseline_kips"],
            row["ratio"] if row["ratio"] is not None else 0.0, mark,
        ))
    geo = report["geomean"]
    lines.append("  %-24s %8.2f vs %8.2f  (x%.3f)  %s" % (
        "geomean", geo["current_kips"], geo["baseline_kips"],
        geo["ratio"] if geo["ratio"] is not None else 0.0,
        "REGRESSED" if geo["regressed"] else "ok",
    ))
    for name in report["added_cases"]:
        lines.append("  + %s (no baseline; not gated)" % name)
    for name in report["removed_cases"]:
        lines.append("  - %s (baseline only; not gated)" % name)
    lines.append(
        "verdict: %s (case tolerance %.0f%%, geomean tolerance %.0f%%)" % (
            "PASS" if report["ok"] else
            "REGRESSION (%d)" % len(report["regressions"]),
            100 * report["thresholds"]["case_tolerance"],
            100 * report["thresholds"]["geomean_tolerance"],
        )
    )
    return "\n".join(lines)
