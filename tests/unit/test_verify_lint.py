"""Unit tests for the determinism lint."""

from repro.verify.lint import (
    RULE_EXEMPT_SUFFIXES,
    lint_source,
    lint_tree,
)


def rules(source, path="pkg/mod.py"):
    return [finding.rule for finding in lint_source(path, source)]


class TestWallClock:
    def test_attribute_call_flagged(self):
        assert rules("import time\nt = time.time()\n") == ["wall-clock"]

    def test_perf_counter_flagged(self):
        assert rules("import time\nt = time.perf_counter()\n") == ["wall-clock"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert rules(src) == ["wall-clock"]

    def test_from_import_flagged(self):
        src = "from time import monotonic\nt = monotonic()\n"
        assert rules(src) == ["wall-clock"]

    def test_from_import_alias_flagged(self):
        src = "from time import time as wall\nt = wall()\n"
        assert rules(src) == ["wall-clock"]

    def test_time_sleep_is_fine(self):
        assert rules("import time\ntime.sleep(1)\n") == []

    def test_exempt_path(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source("repro/verify/inline.py", src) == []


class TestUnseededRandom:
    def test_module_level_call_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules(src) == ["unseeded-random"]

    def test_choice_flagged(self):
        src = "import random\nx = random.choice([1, 2])\n"
        assert rules(src) == ["unseeded-random"]

    def test_seeded_generator_allowed(self):
        src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert rules(src) == []

    def test_from_import_flagged(self):
        src = "from random import shuffle\nshuffle([1, 2])\n"
        assert rules(src) == ["unseeded-random"]

    def test_exempt_path(self):
        src = "import random\nx = random.getrandbits(8)\n"
        assert lint_source("repro/sim/rng.py", src) == []


class TestUnorderedIteration:
    def test_for_over_set_call_flagged(self):
        src = "for x in set(items):\n    use(x)\n"
        assert rules(src) == ["unordered-iteration"]

    def test_for_over_set_literal_flagged(self):
        src = "for x in {1, 2, 3}:\n    use(x)\n"
        assert rules(src) == ["unordered-iteration"]

    def test_set_binop_flagged(self):
        src = "for x in set(a) | set(b):\n    use(x)\n"
        assert rules(src) == ["unordered-iteration"]

    def test_known_set_attr_flagged(self):
        src = "for tid in obj.local_readers:\n    use(tid)\n"
        assert rules(src) == ["unordered-iteration"]

    def test_comprehension_flagged(self):
        src = "out = [f(x) for x in frozenset(items)]\n"
        assert rules(src) == ["unordered-iteration"]

    def test_sorted_wrapper_suppresses(self):
        src = "for x in sorted(set(items)):\n    use(x)\n"
        assert rules(src) == []

    def test_list_iteration_is_fine(self):
        src = "for x in [1, 2, 3]:\n    use(x)\n"
        assert rules(src) == []


class TestSuppression:
    def test_det_allow_marker(self):
        src = "import time\nt = time.time()  # det: allow\n"
        assert rules(src) == []

    def test_marker_only_covers_its_line(self):
        src = ("import time\n"
               "a = time.time()  # det: allow\n"
               "b = time.time()\n")
        assert rules(src) == ["wall-clock"]

    def test_marker_with_trailing_rationale(self):
        src = ("import time\n"
               "t = time.time()  # det: allow -- report label only\n")
        assert rules(src) == []

    def test_marker_suppresses_any_rule_on_the_line(self):
        src = "for x in set(items):  # det: allow\n    use(x)\n"
        assert rules(src) == []


class TestRuleExemptions:
    def test_exemptions_are_per_rule(self):
        # A wall-clock-exempt path is NOT exempt from the other rules.
        path = "repro/parallel/service.py"
        assert path.endswith(RULE_EXEMPT_SUFFIXES["wall-clock"][4])
        assert lint_source(path, "import time\nt = time.time()\n") == []
        findings = lint_source(path,
                               "import random\nx = random.random()\n")
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_suffix_match_requires_full_segment_tail(self):
        # "verify/inline.py" must match as a path suffix, so a module
        # that merely *contains* the string elsewhere is not exempt.
        findings = lint_source("repro/verify/inline.py.bak/mod.py",
                               "import time\nt = time.time()\n")
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_backslash_paths_are_normalized(self):
        findings = lint_source("repro\\verify\\inline.py",
                               "import time\nt = time.time()\n")
        assert findings == []

    def test_every_exempt_suffix_names_a_real_module(self):
        # Exemptions for deleted modules linger silently; keep the
        # table honest against the installed package.
        from repro.verify.lint import default_root

        root = default_root()
        for suffixes in RULE_EXEMPT_SUFFIXES.values():
            for suffix in suffixes:
                assert (root / suffix).exists(), (
                    f"RULE_EXEMPT_SUFFIXES entry {suffix!r} matches no "
                    f"module under {root}")


class TestSyntaxRule:
    def test_unparsable_source_reported(self):
        findings = lint_source("bad.py", "def broken(:\n")
        assert [f.rule for f in findings] == ["syntax"]


class TestRealTree:
    def test_package_is_clean(self):
        assert lint_tree() == []
