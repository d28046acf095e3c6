"""Access trees: the policy language of REED's dynamic access control.

A policy is a tree whose non-leaf nodes are threshold gates (``AND`` =
n-of-n, ``OR`` = 1-of-n, or an explicit ``k of (...)``) and whose leaves
are attributes (Section IV-C).  REED's default policy is an OR gate over
the identifier attributes of all authorized users, but the machinery
supports arbitrary trees.

A small grammar is provided so policies read naturally::

    alice or bob
    (dept:genomics and rank:senior) or admin
    2 of (alice, bob, carol)

Attributes are case-sensitive identifiers; ``and`` / ``or`` / ``of`` are
case-insensitive keywords.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from repro.util.codec import Decoder, Encoder
from repro.util.errors import ConfigurationError, CorruptionError


@dataclass(frozen=True)
class Leaf:
    """A leaf node: satisfied when the user holds ``attribute``."""

    attribute: str


@dataclass(frozen=True)
class Gate:
    """A threshold gate: satisfied when >= ``threshold`` children are."""

    threshold: int
    children: tuple["Node", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ConfigurationError("gate must have at least one child")
        if not 1 <= self.threshold <= len(self.children):
            raise ConfigurationError(
                f"threshold {self.threshold} invalid for "
                f"{len(self.children)} children"
            )


Node = Union[Leaf, Gate]


def and_of(*children: Node) -> Gate:
    return Gate(threshold=len(children), children=tuple(children))


def or_of(*children: Node) -> Gate:
    return Gate(threshold=1, children=tuple(children))


def threshold_of(k: int, *children: Node) -> Gate:
    return Gate(threshold=k, children=tuple(children))


def or_of_identifiers(user_ids: list[str]) -> Gate:
    """REED's default file policy: an OR gate over user identifiers.

    A single-user policy is represented as a 1-of-1 gate so the tree
    shape (and thus the ciphertext layout) is uniform.
    """
    if not user_ids:
        raise ConfigurationError("a policy needs at least one authorized user")
    if len(set(user_ids)) != len(user_ids):
        raise ConfigurationError("duplicate user identifiers in policy")
    return Gate(threshold=1, children=tuple(Leaf(uid) for uid in user_ids))


def attributes_of(node: Node) -> set[str]:
    """All attributes mentioned anywhere in the tree."""
    if isinstance(node, Leaf):
        return {node.attribute}
    out: set[str] = set()
    for child in node.children:
        out |= attributes_of(child)
    return out


def leaf_count(node: Node) -> int:
    if isinstance(node, Leaf):
        return 1
    return sum(leaf_count(child) for child in node.children)


def satisfies(node: Node, attributes: set[str]) -> bool:
    """Does an attribute set satisfy the tree?"""
    if isinstance(node, Leaf):
        return node.attribute in attributes
    satisfied = sum(1 for child in node.children if satisfies(child, attributes))
    return satisfied >= node.threshold


# ---------------------------------------------------------------------------
# Serialization (deterministic; stored inside ABE ciphertexts)
# ---------------------------------------------------------------------------

_LEAF_TAG = 0
_GATE_TAG = 1
_MAX_DEPTH = 64


def encode_tree(node: Node) -> bytes:
    enc = Encoder()
    _encode_into(enc, node)
    return enc.done()


def _encode_into(enc: Encoder, node: Node) -> None:
    if isinstance(node, Leaf):
        enc.uint(_LEAF_TAG).text(node.attribute)
    else:
        enc.uint(_GATE_TAG).uint(node.threshold).uint(len(node.children))
        for child in node.children:
            _encode_into(enc, child)


def decode_tree(data: bytes) -> Node:
    dec = Decoder(data)
    node = _decode_from(dec, depth=0)
    dec.expect_end()
    return node


def _decode_from(dec: Decoder, depth: int) -> Node:
    if depth > _MAX_DEPTH:
        raise CorruptionError("access tree nesting too deep")
    tag = dec.uint()
    if tag == _LEAF_TAG:
        return Leaf(attribute=dec.text())
    if tag == _GATE_TAG:
        threshold = dec.uint()
        count = dec.uint()
        if count == 0 or count > 1_000_000:
            raise CorruptionError("implausible gate child count")
        children = tuple(_decode_from(dec, depth + 1) for _ in range(count))
        try:
            return Gate(threshold=threshold, children=children)
        except ConfigurationError as exc:
            raise CorruptionError(f"invalid encoded gate: {exc}") from exc
    raise CorruptionError(f"unknown access-tree node tag {tag}")


# ---------------------------------------------------------------------------
# Policy grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
    r"|(?P<word>[A-Za-z0-9_@.:\-]+))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ConfigurationError(f"bad policy syntax near {remainder[:20]!r}")
        pos = match.end()
        tokens.append(match.group().strip())
    return tokens


class _Parser:
    """Recursive-descent parser for the policy grammar."""

    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise ConfigurationError("unexpected end of policy")
        self._pos += 1
        return token

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise ConfigurationError(f"expected {token!r}, got {got!r}")

    def parse(self) -> Node:
        node = self._or_expr()
        if self._peek() is not None:
            raise ConfigurationError(f"trailing tokens in policy: {self._peek()!r}")
        return node

    def _or_expr(self) -> Node:
        children = [self._and_expr()]
        while self._peek() is not None and self._peek().lower() == "or":
            self._next()
            children.append(self._and_expr())
        if len(children) == 1:
            return children[0]
        return Gate(threshold=1, children=tuple(children))

    def _and_expr(self) -> Node:
        children = [self._unit()]
        while self._peek() is not None and self._peek().lower() == "and":
            self._next()
            children.append(self._unit())
        if len(children) == 1:
            return children[0]
        return Gate(threshold=len(children), children=tuple(children))

    def _unit(self) -> Node:
        token = self._peek()
        if token == "(":
            self._next()
            node = self._or_expr()
            self._expect(")")
            return node
        token = self._next()
        # "k of (a, b, c)" threshold form.
        next_token = self._peek()
        if token.isdigit() and next_token is not None and next_token.lower() == "of":
            self._next()
            self._expect("(")
            children = [self._or_expr()]
            while self._peek() == ",":
                self._next()
                children.append(self._or_expr())
            self._expect(")")
            return Gate(threshold=int(token), children=tuple(children))
        if token.lower() in ("and", "or", "of") or token in ("(", ")", ","):
            raise ConfigurationError(f"unexpected token {token!r} in policy")
        return Leaf(attribute=token)


def parse_policy(text: str) -> Node:
    """Parse a policy expression into an access tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ConfigurationError("empty policy")
    return _Parser(tokens).parse()


def format_policy(node: Node) -> str:
    """Render a tree back into grammar form (round-trips with the parser)."""
    if isinstance(node, Leaf):
        return node.attribute
    inner = [format_policy(child) for child in node.children]
    if node.threshold == 1:
        return "(" + " or ".join(inner) + ")"
    if node.threshold == len(node.children):
        return "(" + " and ".join(inner) + ")"
    return f"{node.threshold} of (" + ", ".join(inner) + ")"
