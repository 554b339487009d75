"""STX-like streaming XML transformations.

DIPBench translates between XML schemas "using a given STX translation"
(P01: XSD_Beijing → XSD_Seoul; P09: the Asian result sets → the CDB
schema).  STX (Streaming Transformations for XML) processes a SAX event
stream against template rules, never materializing more state than the
current element stack.

We reproduce that model: a :class:`Stylesheet` is an ordered list of
template rules matched against the element *path* of the event stream.
The transformer walks the input tree as a stream of start/text/end events,
keeps only the path stack plus the output under construction, and applies
the first matching rule per element:

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

from repro.errors import StxError
from repro.xmlkit.doc import XmlElement

# ------------------------------------------------------------------ event model

#: Event kinds of the streaming walk.
START, TEXT, END = "start", "text", "end"

Event = tuple  # (kind, payload) tuples; see iter_events.


def iter_events(root: XmlElement) -> Iterator[Event]:
    """Stream a tree as (START, tag, attrs) / (TEXT, text) / (END, tag)."""
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


class Stylesheet:
    """An ordered collection of template rules.

    >>> sheet = Stylesheet("beijing-to-seoul", [
    ...     RenameRule("/BeijingData", "SeoulData"),
    ...     RenameRule("//CustomerRec", "Customer"),
    ... ])
    """

    def __init__(self, name: str, rules: Iterable[_Rule]):
        self.name = name
        self.rules: list[_Rule] = list(rules)
        #: Number of events processed over this stylesheet's lifetime
        #: (feeds the engine's processing-cost model).
        self.events_processed = 0
        #: ``path -> best rule``, filled per distinct path; valid only
        #: while ``rules`` equals ``_dispatch_rules``.
        self._dispatch: dict[tuple[str, ...], _Rule | None] = {}
        self._dispatch_rules: list[_Rule] = []

    def _best_rule(self, path: tuple[str, ...]) -> _Rule | None:
        best: _Rule | None = None
        for rule in self.rules:
            if rule.matches(path):
                if best is None or rule.specificity > best.specificity:
                    best = rule
        return best

    def transform(self, document: XmlElement) -> XmlElement:
        """Run the stylesheet over ``document`` and return the new tree.

        The walk keeps one frame per open (non-dropped) input element.
        A frame is either a real output element, or an *unwrap* marker
        that re-parents children to the frame below it.  Each distinct
        element path is matched against the rule list once per
        stylesheet; later elements on that path take the remembered rule.
        """
        if self.rules != self._dispatch_rules:
            self._dispatch_rules = list(self.rules)
            self._dispatch = {}
        dispatch = self._dispatch
        # Frames: ("elem", element, rule, path) or
        # ("unwrap", parent_or_None, rule, path) — either way the top
        # frame's second slot is where children go.
        frames: list[tuple[str, XmlElement | None, _Rule | None, tuple]] = []
        dropped_depth = 0
        result: XmlElement | None = None
        events = 0
        try:
            for event in iter_events(document):
                events += 1
                kind = event[0]
                if kind == START:
                    if dropped_depth:
                        dropped_depth += 1
                        continue
                    _, tag, attributes = event
                    if frames:
                        _, parent, _, path = frames[-1]
                        path += (tag,)
                    else:
                        parent, path = None, (tag,)
                    try:
                        rule = dispatch[path]
                    except KeyError:
                        rule = dispatch[path] = self._best_rule(path)
                    if rule is None:
                        out = XmlElement(tag, attributes)  # identity template
                    elif isinstance(rule, UnwrapRule):
                        frames.append(("unwrap", parent, rule, path))
                        continue
                    else:
                        out = rule.open_element(tag, attributes)
                        if out is None:
                            dropped_depth = 1
                            continue
                    if parent is not None:
                        parent.children.append(out)
                    frames.append(("elem", out, rule, path))
                elif kind == TEXT:
                    if dropped_depth:
                        continue
                    if not frames:
                        raise StxError("text event outside any element")
                    frame_kind, element, rule, _ = frames[-1]
                    if frame_kind == "unwrap":
                        continue  # unwrapped containers lose their text
                    text = event[1]
                    element.text = rule.rewrite_text(text) if rule else text
                else:  # END
                    if dropped_depth:
                        dropped_depth -= 1
                        continue
                    frame_kind, element, _, _ = frames.pop()
                    if frame_kind == "elem" and (
                        not frames or frames[-1][1] is None
                    ):
                        if result is not None:
                            raise StxError(
                                f"stylesheet {self.name} produced multiple "
                                "root elements"
                            )
                        result = element
        finally:
            self.events_processed += events

        if result is None:
            raise StxError(
                f"stylesheet {self.name} dropped the document root; "
                "no output produced"
            )
        return result
