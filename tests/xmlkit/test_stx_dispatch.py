"""The per-stylesheet compiled plan of Stylesheet.transform.

The plan is a memo of ``_best_rule``, one step per distinct element
path: for every scenario stylesheet and every element path of the
documents a benchmark period feeds it, it must hold exactly what a
fresh scan of the rule list answers and the action that rule's kind
calls for, and it must serve every later transform of the sheet.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import StxError
from repro.xmlkit import stx
from repro.xmlkit.doc import parse_xml, serialize_xml
from repro.xmlkit.stx import (
    DropRule,
    RenameRule,
    Stylesheet,
    TemplateRule,
    UnwrapRule,
    ValueRule,
)


def element_paths(document):
    """Every root-to-element tag path of ``document``."""
    paths, stack = set(), [((document.tag,), document)]
    while stack:
        path, element = stack.pop()
        paths.add(path)
        stack.extend((path + (c.tag,), c) for c in element.children)
    return paths


def compiled(sheet):
    """``{path: step}`` of every step ``sheet`` has compiled so far."""
    steps, pending = {}, list(sheet._plan.children.values())
    while pending:
        step = pending.pop()
        steps[step.path] = step
        pending.extend(step.children.values())
    return steps


#: The action a rule of exactly this type compiles to; anything else —
#: templates, drops, subclasses — is called.
ACTIONS = {
    type(None): stx._IDENTITY,
    RenameRule: stx._RENAME,
    ValueRule: stx._VALUE,
    UnwrapRule: stx._UNWRAP,
    TemplateRule: stx._CALL,
    DropRule: stx._CALL,
}


@pytest.fixture(scope="module")
def scenario_sheets(period_xml):
    """``{id(sheet): (sheet, paths of every document it transformed)}``
    from one full benchmark period of each of the two XML-heavy engines."""
    return {
        key: (sheet, set().union(*map(element_paths, documents)))
        for key, (sheet, documents) in period_xml.sheets.items()
    }


class TestScenarioDispatch:
    def test_every_scenario_stylesheet_ran(self, scenario_sheets):
        names = {sheet.name for sheet, _ in scenario_sheets.values()}
        assert len(names) >= 7, names

    def test_dispatch_equals_a_fresh_rule_scan(self, scenario_sheets):
        for sheet, paths in scenario_sheets.values():
            steps = compiled(sheet)
            assert steps, sheet.name
            # Only paths of real input elements are remembered (those
            # under a dropped subtree are never looked up).
            assert set(steps) <= paths, sheet.name
            for path in paths:
                if path in steps:
                    rule = sheet._best_rule(path)
                    assert steps[path].rule is rule, (sheet.name, path)
                    assert steps[path].action == ACTIONS[type(rule)], (
                        sheet.name, path,
                    )

    def test_threads_filling_one_plan_agree(self, period_xml):
        """Eight threads switching every microsecond fill one cold plan
        per scenario stylesheet, as threads sharing the resident set do:
        every output and event count is its serial twin's."""
        cases = list(period_xml.sheets.values())

        def transform_all(sheets):
            # Each call its own copies: a rows-backed input builds its
            # tree at its first read.
            return [
                [
                    (serialize_xml(tree), events)
                    for tree, events in (
                        sheet.transform(document.copy()) for document in documents
                    )
                ]
                for sheet, (_, documents) in zip(sheets, cases)
            ]

        expected = transform_all([Stylesheet(s.name, s._rules) for s, _ in cases])
        shared = [Stylesheet(s.name, s._rules) for s, _ in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(transform_all, shared) for _ in range(8)]
                results = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)
        for sheet in shared:
            for path, step in compiled(sheet).items():
                assert step.rule is sheet._best_rule(path), (sheet.name, path)

    def test_a_few_dozen_paths_serve_the_whole_period(self, scenario_sheets):
        for sheet, _ in scenario_sheets.values():
            assert len(compiled(sheet)) <= 60, (sheet.name, len(compiled(sheet)))


DOC = "<a><b>1</b><c><b>2</b></c></a>"


def run(sheet):
    return serialize_xml(sheet.transform(parse_xml(DOC))[0])


class TestRuleListMutation:
    """``rules`` is a tuple behind a read-only property: the plan of a
    sheet serves every later transform."""

    def test_unchanged_rules_keep_the_dispatch_between_transforms(self):
        sheet = Stylesheet("s", [RenameRule("//b", "x")])
        run(sheet)
        remembered = sheet._plan
        steps = compiled(sheet)
        run(sheet)
        assert sheet._plan is remembered
        assert all(compiled(sheet)[path] is step for path, step in steps.items())

    def test_events_are_counted_as_before(self):
        sheet = Stylesheet("s", [DropRule("//c")])
        # 4 starts + 4 ends + 2 texts, dropped subtree included.
        assert sheet.transform(parse_xml(DOC))[1] == 10
        failing = Stylesheet("t", [DropRule("/a")])
        with pytest.raises(StxError, match="dropped the document root"):
            failing.transform(parse_xml(DOC))
