"""The repo-wide gate: ``repro lint-host`` must be clean, and stay clean.

The whole-tree run is the same check CI performs; the CLI tests pin the
exit-code contract (0 clean / 7 findings).
"""

import io
import json
from pathlib import Path

from repro.cli import EXIT_HOST_LINT_FINDINGS, main
from repro.lint.host import HOST_RULES, lint_host

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
