"""The reach allowlist, checked from the source alone.

``reach.py`` traces the entry set (tens of seconds, a CI step).  These
checks read ``src/repro`` with :mod:`ast` only, so a stale or malformed
entry fails tier-1 at once.
"""

import collections
import textwrap

from reach import (
    ALLOWLIST,
    CATEGORIES,
    check,
    is_dunder,
    list_functions,
    load_allowlist,
)

ENTRIES = load_allowlist()
FUNCTIONS = set(list_functions().values())


def test_every_entry_names_a_def_that_exists():
    missing = [e["function"] for e in ENTRIES if e["function"] not in FUNCTIONS]
    assert missing == []


def test_every_entry_has_a_category_and_a_one_line_reason():
    for entry in ENTRIES:
        assert set(entry) == {"function", "category", "reason"}, entry
        assert entry["category"] in CATEGORIES, entry
        reason = entry["reason"]
        assert reason.strip() == reason and reason, entry
        assert "\n" not in reason, entry


def test_every_function_appears_once_in_order():
    names = [e["function"] for e in ENTRIES]
    repeated = [n for n, k in collections.Counter(names).items() if k > 1]
    assert repeated == []
    assert names == sorted(names), f"keep {ALLOWLIST.name} sorted by function"


def test_no_dunder_is_listed():
    # Dunders are never checked, so an entry for one could never go stale.
    assert [e["function"] for e in ENTRIES if is_dunder(e["function"])] == []


def _tree(tmp_path, source):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(source))
    return list_functions(tmp_path)


def test_a_decorated_def_starts_at_its_first_decorator(tmp_path):
    functions = _tree(tmp_path, """\
        import functools


        class Box:
            @property
            @functools.lru_cache
            def size(self):
                return 1

            @size.setter
            def size(self, value):
                pass
        """)
    sites = {name: (line, short) for (_f, line, short), name in functions.items()}
    assert sites == {
        "repro.mod:Box.size": (5, "size"),
        "repro.mod:Box.size#2": (10, "size"),
    }


def test_check_reports_each_way_the_allowlist_can_be_wrong(tmp_path):
    functions = _tree(tmp_path, """\
        def called():
            pass


        def dead():
            pass


        def listed_but_called():
            pass
        """)
    entered = {
        site for site, name in functions.items()
        if name != "repro.mod:dead"
    }
    allowlist = [
        {"function": "repro.mod:gone", "category": "error", "reason": "r"},
        {"function": "repro.mod:listed_but_called", "category": "error",
         "reason": "r"},
    ]
    never, _listed, problems = check(functions, entered, allowlist)
    assert never == ["repro.mod:dead"]
    assert problems == [
        "never entered, no allowlist entry: repro.mod:dead",
        "allowlisted but not defined: repro.mod:gone",
        "allowlisted but entered: repro.mod:listed_but_called",
    ]
