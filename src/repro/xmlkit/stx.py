"""STX-like streaming XML transformations.

DIPBench translates between XML schemas "using a given STX translation"
(P01: XSD_Beijing → XSD_Seoul; P09: the Asian result sets → the CDB
schema).  STX (Streaming Transformations for XML) processes a SAX event
stream against template rules, never materializing more state than the
current element stack.

We reproduce that model: a :class:`Stylesheet` is an ordered list of
template rules matched against the element *path* of the event stream.
The transformer walks the input tree in stream order, keeps only the
stack of open containers plus the output under construction, *accounts*
the start/text/end events the walk stands for (:func:`iter_events` is
the event view of a tree) and applies the best matching rule per element:

* :class:`RenameRule` — rename the element (and optionally its attributes),
* :class:`DropRule` — drop the whole subtree,
* :class:`ValueRule` — rename and rewrite the text via a mapping/callable,
* :class:`TemplateRule` — full control: a callable builds the replacement
  element from (tag, attributes); children are still streamed into it.

Path patterns are ``/``-separated tag sequences; a leading ``//`` matches
any prefix (``//Item`` matches every Item).  The most specific (longest)
matching pattern wins; insertion order breaks ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import StxError, XmlParseError
from repro.xmlkit.doc import ResultSetRoot, XmlElement

# ------------------------------------------------------------------ event model

#: Event kinds of the streaming walk.
START, TEXT, END = "start", "text", "end"

Event = tuple  # (kind, payload) tuples; see iter_events.


def iter_events(root: XmlElement) -> Iterator[Event]:
    """Stream a tree as (START, tag, attrs) / (TEXT, text) / (END, tag).

    The event view of a tree: what :meth:`Stylesheet.transform` counts
    and returns beside its result, one for one and in this order.
    """
    stack: list[tuple[XmlElement, int]] = [(root, 0)]
    yield (START, root.tag, dict(root.attributes))
    if root.text:
        yield (TEXT, root.text)
    while stack:
        node, child_index = stack[-1]
        if child_index < len(node.children):
            stack[-1] = (node, child_index + 1)
            child = node.children[child_index]
            yield (START, child.tag, dict(child.attributes))
            if child.text:
                yield (TEXT, child.text)
            stack.append((child, 0))
        else:
            stack.pop()
            yield (END, node.tag)


# ------------------------------------------------------------------- rule types


class _Rule:
    """Base class: every rule has a match pattern."""

    def __init__(self, match: str):
        if not match:
            raise StxError("rule needs a match pattern")
        self.match = match
        self.anywhere = match.startswith("//")
        pattern = match[2:] if self.anywhere else match.lstrip("/")
        self.parts = tuple(part for part in pattern.split("/") if part)
        if not self.parts:
            raise StxError(f"invalid match pattern {match!r}")

    def matches(self, path: tuple[str, ...]) -> bool:
        if self.anywhere:
            if len(path) < len(self.parts):
                return False
            return path[-len(self.parts) :] == self.parts
        return path == self.parts

    @property
    def specificity(self) -> tuple[int, int]:
        # Exact paths beat anywhere-patterns; longer patterns beat shorter.
        return (0 if self.anywhere else 1, len(self.parts))


class RenameRule(_Rule):
    """Rename an element, optionally renaming attributes too."""

    def __init__(
        self,
        match: str,
        to: str,
        attribute_renames: Mapping[str, str] | None = None,
    ):
        super().__init__(match)
        self.to = to
        self.attribute_renames = dict(attribute_renames or {})

    def open_element(self, tag: str, attributes: dict[str, str]) -> XmlElement | None:
        renamed = {
            self.attribute_renames.get(name, name): value
            for name, value in attributes.items()
        }
        return XmlElement(self.to, renamed)

    def rewrite_text(self, text: str) -> str:
        return text


class DropRule(_Rule):
    """Drop the matched element and its entire subtree."""

    def open_element(self, tag: str, attributes: dict[str, str]) -> XmlElement | None:
        return None

    def rewrite_text(self, text: str) -> str:  # pragma: no cover - unreachable
        return text


class ValueRule(_Rule):
    """Rename an element and rewrite its text content.

    ``value_map`` may be a dict (semantic value mapping, e.g. priority
    flags ``'1-URGENT'`` → ``'U'``) or a callable.  Unmapped dict values
    pass through unchanged.
    """

    def __init__(
        self,
        match: str,
        to: str | None = None,
        value_map: Mapping[str, str] | Callable[[str], str] | None = None,
    ):
        super().__init__(match)
        self.to = to
        if callable(value_map):
            self._rewrite: Callable[[str], str] = value_map
        elif value_map is not None:
            mapping = dict(value_map)
            self._rewrite = lambda text: mapping.get(text, text)
        else:
            self._rewrite = lambda text: text

    def open_element(self, tag: str, attributes: dict[str, str]) -> XmlElement | None:
        return XmlElement(self.to or tag, attributes)

    def rewrite_text(self, text: str) -> str:
        return self._rewrite(text)


class UnwrapRule(_Rule):
    """Remove the matched element but keep (and re-parent) its children.

    The classic flattening move: ``<Anschrift><Strasse/></Anschrift>``
    becomes just ``<Strasse/>`` hanging off Anschrift's parent.  Text
    content of the unwrapped element is discarded (container elements
    carry none in our schemas).
    """

    def open_element(self, tag: str, attributes: dict[str, str]) -> XmlElement | None:
        raise StxError("UnwrapRule is handled by the transformer")  # pragma: no cover

    def rewrite_text(self, text: str) -> str:  # pragma: no cover - unreachable
        return text


class TemplateRule(_Rule):
    """Full-control template: ``build(tag, attributes)`` returns the
    replacement element (children are still streamed into it), or None to
    drop the subtree."""

    def __init__(
        self,
        match: str,
        build: Callable[[str, dict[str, str]], XmlElement | None],
        text: Callable[[str], str] | None = None,
    ):
        super().__init__(match)
        self._build = build
        self._text = text

    def open_element(self, tag: str, attributes: dict[str, str]) -> XmlElement | None:
        return self._build(tag, attributes)

    def rewrite_text(self, text: str) -> str:
        return self._text(text) if self._text else text


# ------------------------------------------------------------------- stylesheet

#: What the walk does at an element, decided once per element path.  The
#: three built-in rewrites run inline, reading the rule's fields at each
#: element; every other rule (templates, drops, subclasses) is called.
_IDENTITY, _RENAME, _VALUE, _UNWRAP, _CALL = range(5)


class _PathPlan:
    """The compiled step for one element path: the rule that wins there,
    what the walk does with it, and the steps of the child paths seen so
    far (by tag, each resolved at its first element)."""

    __slots__ = ("path", "rule", "action", "children")

    def __init__(self, path: tuple[str, ...], rule: _Rule | None):
        self.path = path
        self.rule = rule
        if rule is None:
            self.action = _IDENTITY
        elif isinstance(rule, UnwrapRule):
            self.action = _UNWRAP
        elif type(rule) is RenameRule:
            self.action = _RENAME
        elif type(rule) is ValueRule:
            self.action = _VALUE
        else:
            self.action = _CALL
        self.children: dict[str, _PathPlan] = {}


def _renamed(step: _PathPlan, tag: str) -> str | None:
    """The tag ``step`` gives an element if it renames it and nothing else."""
    if step.action == _IDENTITY:
        return tag
    if step.action == _RENAME and not step.rule.attribute_renames:
        return step.rule.to
    return None


def _events_below_start(element: XmlElement) -> int:
    """Events of ``element``'s subtree after its own START."""
    events, level = -1, [element]
    while level:
        events += sum(3 if node.text else 2 for node in level)
        level = [below for node in level for below in node.children]
    return events


class Stylesheet:
    """An ordered collection of template rules.

    >>> sheet = Stylesheet("beijing-to-seoul", [
    ...     RenameRule("/BeijingData", "SeoulData"),
    ...     RenameRule("//CustomerRec", "Customer"),
    ... ])
    """

    def __init__(self, name: str, rules: Iterable[_Rule]):
        self.name = name
        self._rules = tuple(rules)
        #: The compiled plan: a trie of :class:`_PathPlan` under a rootless
        #: top node, grown per distinct path at its first element.
        self._plan = _PathPlan((), None)

    @property
    def rules(self) -> tuple[_Rule, ...]:
        """The template rules, in order (read-only)."""
        return self._rules

    def _best_rule(self, path: tuple[str, ...]) -> _Rule | None:
        best: _Rule | None = None
        for rule in self._rules:
            if rule.matches(path):
                if best is None or rule.specificity > best.specificity:
                    best = rule
        return best

    def _compile(self, parent: _PathPlan, tag: str) -> _PathPlan:
        """The step of ``tag`` below ``parent``, compiled at first use."""
        step = parent.children.get(tag)
        if step is None:
            path = parent.path + (tag,)
            step = parent.children[tag] = _PathPlan(path, self._best_rule(path))
        return step

    def _rename_rows(self, document: ResultSetRoot) -> ResultSetRoot | None:
        """``document`` translated without its tree when the plan renames
        the root and row tags and nothing else (each step identity or a
        :class:`RenameRule` without attribute renames) and keeps every
        column; else None.  Steps are resolved in walk order and no
        further than the first that does not qualify, so the walk finds
        the plan as it would have left it."""
        root = self._compile(self._plan, document.tag)
        name, row_tag = _renamed(root, document.tag), document.row_tag
        if name and document.rows:
            row = self._compile(root, row_tag)
            row_tag = _renamed(row, row_tag)
            if row_tag and any(
                self._compile(row, column).action != _IDENTITY
                for column in document.columns
            ):
                row_tag = None
        if not (name and row_tag):
            return None
        out = ResultSetRoot(
            name, document.attributes, document.columns, document.rows, row_tag
        )
        out.text, out.blank = document.text or None, None
        return out

    def transform(self, document: XmlElement) -> tuple[XmlElement, int]:
        """Run the stylesheet over ``document``: the new tree and the
        number of events the walk accounted.

        One walk over the input tree, in document order.  Each distinct
        element path is matched against the rule list once per
        stylesheet and compiled into a step; later elements on that path
        take the step.  Every output element is allocated once, with one
        copy of its attributes.  The SAX events the walk stands for are
        *accounted*, in stream order — START, TEXT only for truthy text,
        END; every event of a dropped subtree (:func:`iter_events` is
        that stream).

        Only containers open a stack entry; a leaf is finished where it
        is met.  An unwrapped container has no output element of its
        own: its children attach where it would have.

        A result set still held as rows and a plan that only renames it
        give a result set over the same rows (:meth:`_rename_rows`).
        """
        if type(document) is ResultSetRoot and document.rows is not None:
            renamed = self._rename_rows(document)
            if renamed is not None:
                return renamed, document.event_count()
        plan = self._plan
        steps = plan.children
        new = XmlElement.__new__
        nodes = iter((document,))
        #: ``append`` of the child list the elements of ``nodes`` go to;
        #: None at document level, where an element is the result.
        attach = None
        # Per open container: its remaining siblings, their plan, their
        # ``attach``, and its own output element (None if unwrapped).
        stack: list[tuple] = []
        result: XmlElement | None = None
        events = 0
        while True:
            for node in nodes:
                events += 1  # START
                tag = node.tag
                try:
                    step = steps[tag]
                except KeyError:
                    step = self._compile(plan, tag)
                action = step.action
                text = node.text
                if action == _UNWRAP:
                    out = None
                    if text:
                        events += 1  # unwrapped containers lose their text
                else:
                    if action == _CALL:
                        rule = step.rule
                        out = rule.open_element(tag, node.attributes.copy())
                        if out is None:  # dropped with its whole subtree
                            events += _events_below_start(node)
                            continue
                        rewrite = rule.rewrite_text
                    else:
                        if action == _IDENTITY:
                            name = tag
                            attributes = node.attributes.copy()
                            rewrite = None
                        elif action == _RENAME:
                            rule = step.rule
                            name = rule.to
                            renames = rule.attribute_renames
                            if renames:
                                attributes = {
                                    renames.get(key, key): value
                                    for key, value in node.attributes.items()
                                }
                            else:
                                attributes = node.attributes.copy()
                            rewrite = None
                        else:
                            rule = step.rule
                            name = rule.to or tag
                            attributes = node.attributes.copy()
                            rewrite = rule._rewrite
                        if not name:
                            raise XmlParseError("element tag must be non-empty")
                        out = new(XmlElement)
                        out.tag = name
                        out.attributes = attributes
                        out.text = None
                        out.children = []
                    if attach is not None:
                        attach(out)
                    if text:
                        events += 1  # TEXT
                        out.text = rewrite(text) if rewrite else text
                below = node.children
                if below:
                    stack.append((nodes, plan, attach, out))
                    nodes, plan, steps = iter(below), step, step.children
                    if out is not None:
                        attach = out.children.append
                    break
                events += 1  # END of a leaf
                if attach is None and out is not None:
                    result = self._only_root(result, out)
            else:
                if not stack:
                    break
                nodes, plan, attach, out = stack.pop()
                steps = plan.children
                events += 1  # END of a container
                if attach is None and out is not None:
                    result = self._only_root(result, out)

        if result is None:
            raise StxError(
                f"stylesheet {self.name} dropped the document root; "
                "no output produced"
            )
        return result, events

    def _only_root(self, result: XmlElement | None, out: XmlElement) -> XmlElement:
        if result is not None:
            raise StxError(
                f"stylesheet {self.name} produced multiple root elements"
            )
        return out
