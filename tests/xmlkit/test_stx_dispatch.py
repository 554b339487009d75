"""The per-stylesheet ``path -> rule`` dispatch of Stylesheet.transform.

The dispatch dict is a memo of ``_best_rule``: for every scenario
stylesheet and every element path of the documents a benchmark period
feeds it, it must hold exactly what a fresh scan of the rule list
answers, and it must not outlive a change to ``sheet.rules``.
"""

import pytest

from repro.errors import StxError
from repro.parallel.spec import RunSpec, run_spec
from repro.xmlkit.doc import parse_xml, serialize_xml
from repro.xmlkit.stx import DropRule, RenameRule, Stylesheet, UnwrapRule


def element_paths(document):
    """Every root-to-element tag path of ``document``."""
    paths, stack = set(), [((document.tag,), document)]
    while stack:
        path, element = stack.pop()
        paths.add(path)
        stack.extend((path + (c.tag,), c) for c in element.children)
    return paths


@pytest.fixture(scope="module")
def scenario_sheets():
    """``{id(sheet): (sheet, paths of every document it transformed)}``
    from one full benchmark period of each of the two XML-heavy engines."""
    seen = {}
    original = Stylesheet.transform

    def recording(sheet, document):
        entry = seen.setdefault(id(sheet), (sheet, set()))
        entry[1].update(element_paths(document))
        return original(sheet, document)

    Stylesheet.transform = recording
    try:
        for engine in ("interpreter", "eai"):
            outcome = run_spec(
                RunSpec(engine=engine, datasize=0.02, periods=1, seed=3)
            )
            assert outcome.status == "ok", outcome
    finally:
        Stylesheet.transform = original
    return seen


class TestScenarioDispatch:
    def test_every_scenario_stylesheet_ran(self, scenario_sheets):
        names = {sheet.name for sheet, _ in scenario_sheets.values()}
        assert len(names) >= 7, names

    def test_dispatch_equals_a_fresh_rule_scan(self, scenario_sheets):
        for sheet, paths in scenario_sheets.values():
            assert sheet._dispatch, sheet.name
            # Only paths of real input elements are remembered (those
            # under a dropped subtree are never looked up).
            assert set(sheet._dispatch) <= paths, sheet.name
            for path in paths:
                if path in sheet._dispatch:
                    assert sheet._dispatch[path] is sheet._best_rule(path), (
                        sheet.name, path,
                    )

    def test_a_few_dozen_paths_serve_the_whole_period(self, scenario_sheets):
        for sheet, _ in scenario_sheets.values():
            assert len(sheet._dispatch) <= 60, (sheet.name, len(sheet._dispatch))


DOC = "<a><b>1</b><c><b>2</b></c></a>"


def run(sheet):
    return serialize_xml(sheet.transform(parse_xml(DOC)))


class TestRuleListMutation:
    def test_append_is_honoured_by_the_next_transform(self):
        sheet = Stylesheet("s", [RenameRule("//b", "x")])
        assert run(sheet) == "<a><x>1</x><c><x>2</x></c></a>"
        sheet.rules.append(RenameRule("/a/c/b", "deep"))
        assert run(sheet) == "<a><x>1</x><c><deep>2</deep></c></a>"

    def test_replacing_a_rule_in_place_is_honoured(self):
        sheet = Stylesheet("s", [RenameRule("//b", "x")])
        run(sheet)
        sheet.rules[0] = DropRule("//b")
        assert run(sheet) == "<a><c/></a>"

    def test_reordering_changes_the_tie_break(self):
        first, second = RenameRule("//b", "first"), RenameRule("//b", "second")
        sheet = Stylesheet("s", [first, second])
        assert run(sheet) == "<a><first>1</first><c><first>2</first></c></a>"
        sheet.rules.reverse()
        assert run(sheet) == "<a><second>1</second><c><second>2</second></c></a>"

    def test_assigning_a_new_list_and_emptying_it(self):
        sheet = Stylesheet("s", [UnwrapRule("//c")])
        assert run(sheet) == "<a><b>1</b><b>2</b></a>"
        sheet.rules = []
        assert run(sheet) == DOC
        assert sheet._dispatch == {("a",): None, ("a", "b"): None,
                                   ("a", "c"): None, ("a", "c", "b"): None}

    def test_unchanged_rules_keep_the_dispatch_between_transforms(self):
        sheet = Stylesheet("s", [RenameRule("//b", "x")])
        run(sheet)
        remembered = sheet._dispatch
        run(sheet)
        assert sheet._dispatch is remembered

    def test_events_are_counted_as_before(self):
        sheet = Stylesheet("s", [DropRule("//c")])
        run(sheet)
        # 4 starts + 4 ends + 2 texts, dropped subtree included.
        assert sheet.events_processed == 10
        failing = Stylesheet("t", [DropRule("/a")])
        with pytest.raises(StxError, match="dropped the document root"):
            failing.transform(parse_xml(DOC))
        assert failing.events_processed == 10
