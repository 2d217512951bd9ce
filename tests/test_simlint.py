"""The ``simlint`` static pass: rules, scopes, suppressions, CLI.

Two layers of coverage:

* precise unit checks via :func:`check_source` on inline sources —
  rule id **and** line number are asserted exactly, so a checker that
  drifts to a neighbouring statement fails loudly; and
* the fixture corpus under ``tests/fixtures/simlint/`` driven through
  :func:`lint_paths` and the ``repro lint`` CLI — the bad tree must
  exit non-zero with exactly the planted findings, the good tree (and
  the real ``src/repro`` tree) must exit zero.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import repro
from repro.analysis.simlint import Baseline, BaselineError, lint_paths
from repro.analysis.simlint.checkers import check_source
from repro.analysis.simlint.rules import DEFAULT_CONFIG

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"
REPO_ROOT = Path(__file__).parent.parent
SARIF_SCHEMA = json.loads(
    (FIXTURES / "sarif-2.1.0-subset.schema.json").read_text(
        encoding="utf-8"
    )
)


def findings(source: str, posix_path: str = "src/repro/harness/x.py"):
    """(line, rule) pairs for ``source`` linted as ``posix_path``."""
    out = check_source(source, posix_path, posix_path, DEFAULT_CONFIG)
    return [(v.line, v.rule) for v in out]


def findings_with_warnings(
    source: str, posix_path: str = "src/repro/harness/x.py"
):
    """Like :func:`findings` but also returns the directive warnings."""
    sink = []
    out = check_source(
        source, posix_path, posix_path, DEFAULT_CONFIG, warnings=sink
    )
    return [(v.line, v.rule) for v in out], sink


# -- determinism rules, exact line numbers --------------------------------
def test_unseeded_random():
    src = "import random\nrng = random.Random()\n"
    assert findings(src) == [(2, "unseeded-random")]


def test_seeded_random_is_clean():
    src = "import random\nrng = random.Random(42)\n"
    assert findings(src) == []


def test_from_random_import_random_unseeded():
    src = "from random import Random\nrng = Random()\n"
    assert findings(src) == [(2, "unseeded-random")]


def test_module_level_random_use():
    src = "import random\nx = random.choice([1, 2])\n"
    assert findings(src) == [(2, "module-random")]


def test_from_random_import_function():
    src = "from random import shuffle\n"
    assert findings(src) == [(1, "module-random")]


def test_numpy_random():
    src = "import numpy as np\n\n\ndef f():\n    return np.random.rand()\n"
    assert findings(src) == [(5, "numpy-random")]


def test_numpy_seeded_default_rng_is_clean():
    src = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert findings(src) == []


def test_numpy_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert findings(src) == [(2, "numpy-unseeded-generator")]


def test_numpy_module_level_seed_call_still_flagged():
    src = "import numpy as np\nnp.random.seed(0)\n"
    assert findings(src) == [(2, "numpy-random")]


def test_wallclock_imports_and_urandom():
    src = "import time\nimport os\ntoken = os.urandom(4)\n"
    assert findings(src) == [(1, "wallclock"), (3, "wallclock")]


def test_float_equality_annotation_and_literal():
    src = (
        "LOW = 0.25\n"
        "\n"
        "\n"
        "def f(ewma: float):\n"
        "    if ewma == LOW:\n"
        "        return ewma != 0.5\n"
        "    return False\n"
    )
    assert findings(src) == [(5, "float-equality"), (6, "float-equality")]


def test_float_ordering_is_clean():
    src = "def f(ewma: float):\n    return ewma >= 0.5\n"
    assert findings(src) == []


# -- network-scoped rules --------------------------------------------------
NETWORK_PATH = "src/repro/network/x.py"
SET_LOOP = (
    "def drain(ports):\n"
    "    live = set(ports)\n"
    "    for p in live:\n"
    "        p.drain()\n"
)
DICT_MUTATION = (
    "def expire(table):\n"
    "    for key, value in table.items():\n"
    "        if value is None:\n"
    "            table.pop(key)\n"
)


def test_set_iteration_flagged_in_network_scope():
    assert findings(SET_LOOP, NETWORK_PATH) == [(3, "set-iteration")]


def test_set_iteration_ignored_outside_network_scope():
    assert findings(SET_LOOP, "src/repro/harness/x.py") == []


def test_dict_mutation_while_iterating():
    assert findings(DICT_MUTATION, NETWORK_PATH) == [(4, "dict-mutation")]


def test_mutation_of_other_container_is_clean():
    src = (
        "def move(src_q, dst_q):\n"
        "    for key, value in src_q.items():\n"
        "        dst_q.update({key: value})\n"
    )
    assert findings(src, NETWORK_PATH) == []


# -- hot-path hygiene -------------------------------------------------------
def test_registered_hot_path_class_requires_slots():
    src = "class Flit:\n    def __init__(self):\n        self.vc = -1\n"
    assert findings(src, "src/repro/network/flit.py") == [
        (1, "missing-slots")
    ]


def test_hot_path_comment_marker():
    src = "class Fast:  # simlint: hot-path\n    pass\n"
    assert findings(src) == [(1, "missing-slots")]


def test_dataclass_slots_satisfies_hot_path():
    src = (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(slots=True)\n"
        "class Fast:  # simlint: hot-path\n"
        "    x: int = 0\n"
    )
    assert findings(src) == []


def test_attr_created_outside_init_on_slotted_class():
    src = (
        "class S:\n"
        "    __slots__ = ('a',)\n"
        "\n"
        "    def grow(self):\n"
        "        self.b = 1\n"
    )
    assert findings(src) == [(5, "attr-outside-init")]


def test_slot_attr_assigned_in_method_is_clean():
    src = (
        "class S:\n"
        "    __slots__ = ('a',)\n"
        "\n"
        "    def grow(self):\n"
        "        self.a = 1\n"
    )
    assert findings(src) == []


# -- suppressions -----------------------------------------------------------
def test_per_line_suppression():
    src = (
        "import random\n"
        "rng = random.Random()  # simlint: disable=unseeded-random\n"
    )
    assert findings(src) == []


def test_suppression_is_rule_specific():
    src = (
        "import random\n"
        "rng = random.Random()  # simlint: disable=module-random\n"
    )
    assert findings(src) == [(2, "unseeded-random")]


def test_disable_all_on_line():
    src = "import random\nx = random.random()  # simlint: disable=all\n"
    assert findings(src) == []


def test_suppression_only_covers_its_line():
    src = (
        "import random\n"
        "a = random.Random()  # simlint: disable=unseeded-random\n"
        "b = random.Random()\n"
    )
    assert findings(src) == [(3, "unseeded-random")]


# -- fixture corpus through the API ----------------------------------------
#: Every planted finding in the bad tree, keyed by file.
EXPECTED_BAD = {
    "determinism.py": [
        (9, "wallclock"),
        (11, "unseeded-random"),
        (12, "module-random"),
        (14, "wallclock"),
        (20, "float-equality"),
    ],
    "hotpath.py": [
        (7, "missing-slots"),
        (19, "attr-outside-init"),
    ],
    os.path.join("network", "router_hazards.py"): [
        (10, "set-iteration"),
        (17, "dict-mutation"),
    ],
    "vectorized.py": [
        (8, "numpy-unseeded-generator"),
        (12, "numpy-random"),
    ],
    os.path.join("network", "rng_taint.py"): [
        (16, "rng-tainted-hash-key"),
        (17, "rng-tainted-iteration"),
        (17, "set-iteration"),
        (21, "rng-tainted-float-eq"),
        (29, "rng-tainted-hash-key"),
    ],
    os.path.join("service", "async_hazards.py"): [
        (10, "fork-unsafe-module-state"),
        (11, "mutable-module-state"),
        (15, "async-blocking-call"),
        (16, "async-blocking-call"),
        (21, "unawaited-coroutine"),
        (22, "unawaited-coroutine"),
    ],
}


def test_bad_corpus_exact_findings():
    report = lint_paths([str(BAD)])
    assert not report.ok
    assert not report.parse_errors
    by_file = {}
    for violation in report.violations:
        rel = os.path.relpath(violation.path, str(BAD))
        by_file.setdefault(rel, []).append((violation.line, violation.rule))
    assert by_file == EXPECTED_BAD


def test_good_corpus_clean():
    report = lint_paths([str(GOOD)])
    assert report.ok
    assert report.files_checked == 3
    assert report.violations == []
    assert report.warnings == []


def test_repro_source_tree_clean():
    """The tree lints clean — satellite 1 of the simcheck issue, pinned
    so new hazards cannot land silently."""
    src_root = Path(repro.__file__).parent
    report = lint_paths([str(src_root)])
    assert report.ok, report.render()
    assert report.files_checked > 40


# -- CLI ---------------------------------------------------------------------
def run_cli(*args, cwd=None):
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_cli_bad_corpus_exits_nonzero():
    proc = run_cli(str(BAD))
    assert proc.returncode == 1
    assert "unseeded-random" in proc.stdout
    assert "simlint: 22 violation(s)" in proc.stdout


def test_cli_good_corpus_exits_zero():
    proc = run_cli(str(GOOD), "--check")
    assert proc.returncode == 0
    assert "clean" in proc.stdout


def test_cli_defaults_to_repro_tree_and_is_clean():
    proc = run_cli("--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_json_report():
    proc = run_cli(str(BAD), "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    rules = {v["rule"] for v in payload["violations"]}
    assert "float-equality" in rules
    assert payload["counts_by_rule"]["wallclock"] == 2


def test_cli_accepts_multiple_paths():
    proc = run_cli(str(BAD), str(GOOD))
    assert proc.returncode == 1
    assert "simlint: 22 violation(s) in 9 file(s)" in proc.stdout


def test_cli_multiple_paths_all_clean_exits_zero():
    proc = run_cli(str(GOOD), str(GOOD / "clean.py"), "--check")
    assert proc.returncode == 0
    assert "clean" in proc.stdout


# -- RNG taint pass (project dataflow) --------------------------------------
def test_taint_set_literal_and_iteration():
    src = (
        "def arbitrate(rng, sink):\n"
        "    pick = rng.randrange(4)\n"
        "    live = {pick, 3}\n"
        "    for port in live:\n"
        "        sink(port)\n"
    )
    assert findings(src, NETWORK_PATH) == [
        (3, "rng-tainted-hash-key"),
        (4, "rng-tainted-iteration"),
        (4, "set-iteration"),
    ]


def test_taint_local_dict_key():
    src = (
        "def tally(rng):\n"
        "    table = {}\n"
        "    table[rng.randrange(4)] = 1\n"
        "    return table\n"
    )
    assert findings(src, NETWORK_PATH) == [(3, "rng-tainted-hash-key")]


def test_taint_float_eq_through_call_summary():
    src = (
        "def draw(rng):\n"
        "    return rng.random()\n"
        "\n"
        "\n"
        "def collide(rng):\n"
        "    return draw(rng) == draw(rng)\n"
    )
    assert findings(src) == [(6, "rng-tainted-float-eq")]


def test_taint_self_rng_attribute_from_init():
    src = (
        "class Arbiter:\n"
        "    def __init__(self, rng):\n"
        "        self.rng = rng\n"
        "\n"
        "    def collide(self):\n"
        "        return self.rng.random() != self.rng.random()\n"
    )
    assert findings(src) == [(6, "rng-tainted-float-eq")]


def test_taint_seeded_stream_still_tainted():
    src = (
        "import random\n"
        "\n"
        "\n"
        "def pick():\n"
        "    rng = random.Random(42)\n"
        "    live = set()\n"
        "    live.add(rng.randrange(8))\n"
        "    return live\n"
    )
    assert findings(src, NETWORK_PATH) == [(7, "rng-tainted-hash-key")]


def test_taint_sorted_iteration_is_clean():
    src = (
        "def stable(rng, sink):\n"
        "    live = [rng.randrange(4) for _ in range(3)]\n"
        "    for port in sorted(live):\n"
        "        sink(port)\n"
    )
    assert findings(src, NETWORK_PATH) == []


def test_taint_iteration_rule_is_network_scoped_but_float_eq_is_not():
    src = (
        "def arbitrate(rng, sink):\n"
        "    live = {rng.randrange(4)}\n"
        "    for port in live:\n"
        "        sink(port)\n"
        "    return rng.random() != rng.random()\n"
    )
    harness = findings(src, "src/repro/harness/x.py")
    assert harness == [(5, "rng-tainted-float-eq")]
    network = findings(src, NETWORK_PATH)
    assert (3, "rng-tainted-iteration") in network


def test_taint_untainted_float_compare_is_clean():
    src = (
        "def f(rng):\n"
        "    limit = len([1, 2])\n"
        "    return limit == 2\n"
    )
    assert findings(src) == []


# -- async / fork-safety pass -----------------------------------------------
SERVICE_PATH = "src/repro/service/x.py"


def test_async_blocking_calls():
    src = (
        "import subprocess\n"
        "import time  # simlint: disable=wallclock\n"
        "\n"
        "\n"
        "async def run_job(cmd):\n"
        "    time.sleep(1)\n"
        "    subprocess.run(cmd)\n"
        "    with open('log') as fh:\n"
        "        return fh.read()\n"
    )
    assert findings(src) == [
        (6, "async-blocking-call"),
        (7, "async-blocking-call"),
        (8, "async-blocking-call"),
    ]


def test_blocking_calls_fine_in_sync_def():
    src = (
        "import subprocess\n"
        "\n"
        "\n"
        "def run_job(cmd):\n"
        "    subprocess.run(cmd)\n"
    )
    assert findings(src) == []


def test_unawaited_local_coroutine():
    src = (
        "async def tick():\n"
        "    return 1\n"
        "\n"
        "\n"
        "async def bad():\n"
        "    tick()\n"
        "\n"
        "\n"
        "async def good():\n"
        "    await tick()\n"
    )
    assert findings(src) == [(6, "unawaited-coroutine")]


def test_create_task_wrap_is_clean():
    src = (
        "import asyncio\n"
        "\n"
        "\n"
        "async def tick():\n"
        "    return 1\n"
        "\n"
        "\n"
        "async def spawn():\n"
        "    asyncio.create_task(tick())\n"
    )
    assert findings(src) == []


def test_fork_unsafe_module_state_is_service_scoped():
    src = "import threading\n\nLOCK = threading.Lock()\n"
    assert findings(src, SERVICE_PATH) == [
        (3, "fork-unsafe-module-state")
    ]
    assert findings(src, "src/repro/harness/x.py") == []


def test_lock_inside_function_is_clean():
    src = (
        "import threading\n"
        "\n"
        "\n"
        "def make_lock():\n"
        "    return threading.Lock()\n"
    )
    assert findings(src, SERVICE_PATH) == []


def test_mutable_module_state_requires_a_mutator():
    mutated = (
        "CACHE = {}\n"
        "\n"
        "\n"
        "def put(key, value):\n"
        "    CACHE[key] = value\n"
    )
    assert findings(mutated, SERVICE_PATH) == [
        (1, "mutable-module-state")
    ]
    untouched = (
        "TABLE = {'a': 1}\n"
        "\n"
        "\n"
        "def get(key):\n"
        "    return TABLE[key]\n"
    )
    assert findings(untouched, SERVICE_PATH) == []


# -- suppression edge cases -------------------------------------------------
def test_multi_rule_disable_on_one_line():
    src = (
        "import random\n"
        "import time  # simlint: disable=wallclock,module-random\n"
        "from random import shuffle  # simlint: disable=module-random, wallclock\n"
    )
    assert findings(src) == []


def test_disable_on_continuation_line():
    src = (
        "import random\n"
        "value = random.choice(\n"
        "    [1, 2],\n"
        ")  # simlint: disable=module-random\n"
    )
    assert findings(src) == []


def test_unknown_rule_id_warns_not_silent():
    src = "import time  # simlint: disable=not-a-rule\n"
    result, warnings = findings_with_warnings(src)
    assert result == [(1, "wallclock")]
    assert len(warnings) == 1
    assert "unknown rule id 'not-a-rule'" in warnings[0]
    assert ":1: warning:" in warnings[0]


def test_unknown_rule_beside_known_rule_still_suppresses_known():
    src = "import time  # simlint: disable=wallclock,not-a-rule\n"
    result, warnings = findings_with_warnings(src)
    assert result == []
    assert len(warnings) == 1
    assert "not-a-rule" in warnings[0]


def test_disable_file_in_header_after_docstring():
    src = (
        '"""Doc."""\n'
        "\n"
        "# simlint: disable-file=wallclock\n"
        "\n"
        "import time\n"
        "import datetime\n"
    )
    assert findings(src) == []


def test_disable_file_below_first_statement_is_inert_and_warns():
    src = "import time\n# simlint: disable-file=wallclock\n"
    result, warnings = findings_with_warnings(src)
    assert result == [(1, "wallclock")]
    assert len(warnings) == 1
    assert "disable-file" in warnings[0]


def test_disable_file_subsumes_per_line():
    src = (
        "# simlint: disable-file=wallclock\n"
        "import time\n"
        "import datetime  # simlint: disable=wallclock\n"
    )
    assert findings(src) == []


def test_warnings_surface_in_lint_paths_report(tmp_path):
    target = tmp_path / "warned.py"
    target.write_text(
        "x = 1  # simlint: disable=no-such-rule\n", encoding="utf-8"
    )
    report = lint_paths([str(target)])
    assert report.ok  # warnings never flip the exit status
    assert len(report.warnings) == 1
    assert "no-such-rule" in report.warnings[0]
    assert any("no-such-rule" in line for line in report.render().splitlines())


def test_cli_json_includes_warnings(tmp_path):
    target = tmp_path / "warned.py"
    target.write_text(
        "x = 1  # simlint: disable=no-such-rule\n", encoding="utf-8"
    )
    proc = run_cli(str(target), "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert any("no-such-rule" in w for w in payload["warnings"])


# -- baseline gating --------------------------------------------------------
def test_baseline_roundtrip_absorbs_known_findings(tmp_path):
    report = lint_paths([str(BAD)])
    baseline = Baseline.from_violations(report.violations)
    path = tmp_path / "baseline.json"
    baseline.write(path)
    loaded = Baseline.load(path)
    new, matched = loaded.filter(report.violations)
    assert new == []
    assert matched == len(report.violations)


def test_baseline_missing_file_is_empty():
    baseline = Baseline.load("no/such/baseline.json")
    assert baseline.entries == {}


def test_baseline_count_budget(tmp_path):
    target = tmp_path / "dup.py"
    target.write_text(
        "import random\n"
        "a = random.Random()\n"
        "b = random.Random()\n",
        encoding="utf-8",
    )
    report = lint_paths([str(target)])
    assert len(report.violations) == 2
    # Admit only ONE occurrence of the (path, rule, snippet) key: the
    # two findings have different snippets (a = / b =), so baseline one.
    baseline = Baseline.from_violations(report.violations[:1])
    gated = lint_paths([str(target)], baseline=baseline)
    assert len(gated.violations) == 1
    assert gated.baseline_matched == 1
    assert not gated.ok
    assert "(+1 baselined)" in gated.render()


def test_baseline_matching_is_line_number_free(tmp_path):
    target = tmp_path / "shifty.py"
    target.write_text(
        "import random\nrng = random.Random()\n", encoding="utf-8"
    )
    baseline = Baseline.from_violations(
        lint_paths([str(target)]).violations
    )
    # Insert lines above the finding: line number moves, snippet stays.
    target.write_text(
        "import random\n\n\nrng = random.Random()\n", encoding="utf-8"
    )
    gated = lint_paths([str(target)], baseline=baseline)
    assert gated.ok
    assert gated.baseline_matched == 1
    assert gated.violations == []


def test_baseline_rejects_bad_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "entries": []}', encoding="utf-8")
    with pytest.raises(BaselineError):
        Baseline.load(path)


def test_cli_write_baseline_then_check_passes(tmp_path):
    baseline = tmp_path / "baseline.json"
    proc = run_cli(
        str(BAD), "--write-baseline", "--baseline", str(baseline)
    )
    assert proc.returncode == 0
    assert baseline.exists()
    gated = run_cli(
        str(BAD), "--check", "--baseline", str(baseline)
    )
    assert gated.returncode == 0, gated.stdout + gated.stderr
    ungated = run_cli(str(BAD), "--check")
    assert ungated.returncode == 1


def test_cli_malformed_baseline_exits_two(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("not json", encoding="utf-8")
    proc = run_cli(str(GOOD), "--baseline", str(baseline))
    assert proc.returncode == 2
    assert "baseline" in proc.stderr.lower()


def test_clean_tree_with_committed_empty_baseline():
    """The acceptance gate: the real tree has zero findings above the
    committed (empty) baseline — the zero-new-findings policy."""
    committed = REPO_ROOT / ".simlint-baseline.json"
    assert json.loads(committed.read_text(encoding="utf-8"))[
        "entries"
    ] == []
    proc = run_cli(
        "--check",
        "--baseline",
        ".simlint-baseline.json",
        "src/repro",
        "benchmarks",
        "scripts",
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- SARIF export -----------------------------------------------------------
def test_sarif_validates_against_schema():
    report = lint_paths([str(BAD)])
    sarif = report.to_sarif()
    jsonschema.validate(sarif, SARIF_SCHEMA)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "rng-tainted-iteration" in rule_ids
    assert "async-blocking-call" in rule_ids
    assert "numpy-random" in rule_ids
    assert len(run["results"]) == len(report.violations)


def test_sarif_clean_report_validates():
    report = lint_paths([str(GOOD)])
    sarif = report.to_sarif()
    jsonschema.validate(sarif, SARIF_SCHEMA)
    assert sarif["runs"][0]["results"] == []


def test_sarif_result_location_matches_violation():
    report = lint_paths([str(BAD)])
    sarif = report.to_sarif()
    violation = report.violations[0]
    result = sarif["runs"][0]["results"][0]
    assert result["ruleId"] == violation.rule
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == violation.line
    assert region["startColumn"] == violation.col + 1


def test_sarif_carries_directive_warnings(tmp_path):
    target = tmp_path / "warned.py"
    target.write_text(
        "x = 1  # simlint: disable=no-such-rule\n", encoding="utf-8"
    )
    report = lint_paths([str(target)])
    sarif = report.to_sarif()
    jsonschema.validate(sarif, SARIF_SCHEMA)
    notes = sarif["runs"][0]["invocations"][0][
        "toolExecutionNotifications"
    ]
    assert any("no-such-rule" in n["message"]["text"] for n in notes)


def test_cli_sarif_output(tmp_path):
    proc = run_cli(str(BAD), "--sarif")
    assert proc.returncode == 1  # findings still fail the run
    sarif = json.loads(proc.stdout)
    jsonschema.validate(sarif, SARIF_SCHEMA)
    assert sarif["version"] == "2.1.0"


# -- seeded-hazard regression: inject each hazard class into copies of
# -- real modules and assert the right pass catches it ----------------------
def _copy_module(tmp_path, rel_src, rel_dst):
    dst = tmp_path / rel_dst
    dst.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(REPO_ROOT / "src" / "repro" / rel_src, dst)
    return dst


def _rules_found(path):
    return {v.rule for v in lint_paths([str(path)]).violations}


def test_seeded_rng_taint_hazard_in_network_module(tmp_path):
    target = _copy_module(
        tmp_path, "network/routing.py", "network/routing.py"
    )
    with target.open("a", encoding="utf-8") as fh:
        fh.write(
            "\n\ndef _arb_order(rng, ports):\n"
            "    ready = {rng.randrange(8), 0}\n"
            "    for port in ready:\n"
            "        ports.append(port)\n"
            "    return ports\n"
        )
    assert "rng-tainted-iteration" in _rules_found(target)


def test_seeded_blocking_hazard_in_service_module(tmp_path):
    target = _copy_module(
        tmp_path, "service/jobs.py", "service/jobs.py"
    )
    with target.open("a", encoding="utf-8") as fh:
        fh.write(
            "\n\nimport time  # simlint: disable=wallclock\n"
            "\n\nasync def _janitor_tick(path):\n"
            "    time.sleep(0.5)\n"
            "    return path\n"
        )
    assert "async-blocking-call" in _rules_found(target)


def test_seeded_fork_hazard_in_service_module(tmp_path):
    target = _copy_module(
        tmp_path, "service/workers.py", "service/workers.py"
    )
    with target.open("a", encoding="utf-8") as fh:
        fh.write("\n\nimport threading\n_POOL_LOCK = threading.Lock()\n")
    assert "fork-unsafe-module-state" in _rules_found(target)


def test_hazard_free_copies_stay_clean(tmp_path):
    """Control for the seeded-hazard tests: the same copies with no
    injection lint clean, so the assertions above isolate the seed."""
    for rel in (
        "network/routing.py",
        "service/jobs.py",
        "service/workers.py",
    ):
        target = _copy_module(tmp_path, rel, rel)
        report = lint_paths([str(target)])
        assert report.ok, report.render()


# -- generated rule table ---------------------------------------------------
def test_rule_table_in_docs_is_in_sync():
    proc = subprocess.run(
        [sys.executable, "scripts/gen_rule_table.py", "--check"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src")
            + os.pathsep
            + os.environ.get("PYTHONPATH", ""),
        },
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
