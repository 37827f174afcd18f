"""The repo-wide gate: ``repro lint-host`` must be clean, and stay clean.

The whole-tree run is the same check CI performs; the CLI tests pin the
exit-code contract (0 clean / 7 findings) and the baseline workflow
that lets a rule land before its last violation is fixed.
"""

import io
import json
from pathlib import Path

from repro.cli import EXIT_HOST_LINT_FINDINGS, main
from repro.lint.host import (HOST_RULES, apply_baseline, host_finding,
                             lint_host, load_baseline, write_baseline)

ROOT = Path(__file__).resolve().parents[3]


def test_repo_lints_clean():
    findings, files_analyzed, waivers = lint_host()
    assert findings == [], "\n".join(f.render() for f in findings)
    # the gate must actually look at the stack it claims to guard
    assert files_analyzed >= 10
    assert waivers  # every waiver ships with its written justification
    assert all(reason.strip() for reason in waivers.values())


def test_exit_code_contract_is_seven():
    assert EXIT_HOST_LINT_FINDINGS == 7
    # distinct from every other contract code
    from repro import cli
    others = {cli.EXIT_USAGE, cli.EXIT_SIMULATION_ERROR,
              cli.EXIT_INVARIANT_VIOLATION, cli.EXIT_LINT_FINDINGS,
              cli.EXIT_PERF_REGRESSION}
    assert EXIT_HOST_LINT_FINDINGS not in others


def test_cli_json_payload_shape():
    out = io.StringIO()
    rc = main(["lint-host", "--json"], out=out)
    assert rc == 0
    payload = json.loads(out.getvalue())
    assert payload["kind"] == "repro.lint_host"
    assert payload["total_findings"] == 0
    assert payload["findings"] == []
    assert payload["files_analyzed"] >= 10
    assert payload["waivers"]


def test_cli_exits_seven_on_findings(tmp_path):
    bad = tmp_path / "src"
    (bad / "serve").mkdir(parents=True)
    (bad / "serve" / "queue.py").write_text(
        "class JobQueue:\n"
        "    def submit(self, record):\n"
        "        with open(self.path, 'a') as fh:\n"
        "            fh.write(record)\n"
    )
    out = io.StringIO()
    rc = main(["lint-host", "--root", str(bad)], out=out)
    assert rc == EXIT_HOST_LINT_FINDINGS
    assert "HL101" in out.getvalue()


def test_shipped_baseline_is_empty():
    doc = json.loads((ROOT / "LINT_HOST_BASELINE.json").read_text())
    assert doc["kind"] == "repro.lint_host.baseline"
    assert doc["findings"] == []


def test_baseline_roundtrip_and_gating(tmp_path):
    old = host_finding("HW204", "rel/supervise.py", 10, "grandfathered")
    new = host_finding("HL101", "serve/queue.py", 20, "fresh regression")
    path = tmp_path / "baseline.json"
    write_baseline(str(path), [old])
    baselined = load_baseline(str(path))
    assert baselined == {("HW204", "rel/supervise.py")}

    gating, suppressed = apply_baseline([old, new], baselined)
    assert gating == [new]       # a new rule/file pair still gates
    assert suppressed == [old]   # the grandfathered pair does not

    # line numbers do not matter: the same (rule, path) at another line
    moved = host_finding("HW204", "rel/supervise.py", 99, "moved")
    gating, suppressed = apply_baseline([moved], baselined)
    assert gating == [] and suppressed == [moved]


def test_cli_baseline_workflow(tmp_path):
    bad = tmp_path / "src"
    (bad / "serve").mkdir(parents=True)
    (bad / "serve" / "queue.py").write_text(
        "class JobQueue:\n"
        "    def submit(self, record):\n"
        "        with open(self.path, 'a') as fh:\n"
        "            fh.write(record)\n"
    )
    baseline = tmp_path / "baseline.json"
    out = io.StringIO()
    assert main(["lint-host", "--root", str(bad),
                 "--write-baseline", str(baseline)], out=out) == 0
    out = io.StringIO()
    rc = main(["lint-host", "--root", str(bad),
               "--baseline", str(baseline)], out=out)
    assert rc == 0
    assert "baselined" in out.getvalue()


def test_every_rule_is_documented():
    doc = (ROOT / "docs" / "STATIC_ANALYSIS.md").read_text()
    for rule in HOST_RULES:
        assert rule in doc, "rule %s missing from docs/STATIC_ANALYSIS.md" \
            % rule


def test_registry_covers_the_service_stack():
    from repro.lint.host import HOST_MODULES
    for module in ("serve/queue.py", "serve/daemon.py", "perf/cache.py",
                   "perf/tracestore.py", "rel/supervise.py",
                   "obs/telemetry.py"):
        assert module in HOST_MODULES
        assert (ROOT / "src" / "repro" / module).exists()
