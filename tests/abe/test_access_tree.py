"""Tests for access trees: construction, evaluation, grammar, encoding."""

import pytest

from repro.abe import access_tree as at
from repro.util.errors import ConfigurationError, CorruptionError


class TestConstruction:
    def test_gate_validation(self):
        with pytest.raises(ConfigurationError):
            at.Gate(threshold=1, children=())
        with pytest.raises(ConfigurationError):
            at.Gate(threshold=0, children=(at.Leaf("a"),))
        with pytest.raises(ConfigurationError):
            at.Gate(threshold=3, children=(at.Leaf("a"), at.Leaf("b")))

    def test_helpers(self):
        tree = at.and_of(at.Leaf("a"), at.Leaf("b"))
        assert tree.threshold == 2
        tree = at.or_of(at.Leaf("a"), at.Leaf("b"), at.Leaf("c"))
        assert tree.threshold == 1
        tree = at.threshold_of(2, at.Leaf("a"), at.Leaf("b"), at.Leaf("c"))
        assert tree.threshold == 2

    def test_or_of_identifiers(self):
        tree = at.or_of_identifiers(["alice", "bob"])
        assert at.leaf_count(tree) == 2
        assert at.satisfies(tree, {"bob"})

    def test_or_of_identifiers_single_user(self):
        tree = at.or_of_identifiers(["alice"])
        assert isinstance(tree, at.Gate)
        assert at.satisfies(tree, {"alice"})

    def test_or_of_identifiers_validation(self):
        with pytest.raises(ConfigurationError):
            at.or_of_identifiers([])
        with pytest.raises(ConfigurationError):
            at.or_of_identifiers(["a", "a"])


class TestEvaluation:
    def test_and_gate(self):
        tree = at.and_of(at.Leaf("a"), at.Leaf("b"))
        assert at.satisfies(tree, {"a", "b"})
        assert not at.satisfies(tree, {"a"})

    def test_or_gate(self):
        tree = at.or_of(at.Leaf("a"), at.Leaf("b"))
        assert at.satisfies(tree, {"b"})
        assert not at.satisfies(tree, {"c"})

    def test_threshold_gate(self):
        tree = at.threshold_of(2, at.Leaf("a"), at.Leaf("b"), at.Leaf("c"))
        assert at.satisfies(tree, {"a", "c"})
        assert not at.satisfies(tree, {"a"})

    def test_nested(self):
        tree = at.and_of(
            at.or_of(at.Leaf("alice"), at.Leaf("bob")), at.Leaf("dept:genomics")
        )
        assert at.satisfies(tree, {"alice", "dept:genomics"})
        assert not at.satisfies(tree, {"alice"})
        assert not at.satisfies(tree, {"dept:genomics", "carol"})

    def test_attributes_and_leaf_count(self):
        tree = at.and_of(at.Leaf("a"), at.or_of(at.Leaf("b"), at.Leaf("a")))
        assert at.attributes_of(tree) == {"a", "b"}
        assert at.leaf_count(tree) == 3


class TestGrammar:
    @pytest.mark.parametrize(
        "text,attrs,expected",
        [
            ("alice", {"alice"}, True),
            ("alice", {"bob"}, False),
            ("alice or bob", {"bob"}, True),
            ("alice and bob", {"bob"}, False),
            ("alice and bob", {"alice", "bob"}, True),
            ("(a and b) or c", {"c"}, True),
            ("(a and b) or c", {"a"}, False),
            ("a and (b or c)", {"a", "c"}, True),
            ("2 of (a, b, c)", {"a", "c"}, True),
            ("2 of (a, b, c)", {"c"}, False),
            ("2 of (a and b, c, d)", {"a", "b", "d"}, True),
        ],
    )
    def test_parse_and_evaluate(self, text, attrs, expected):
        assert at.satisfies(at.parse_policy(text), attrs) is expected

    def test_and_binds_tighter_than_or(self):
        tree = at.parse_policy("a or b and c")
        assert at.satisfies(tree, {"a"})
        assert not at.satisfies(tree, {"b"})
        assert at.satisfies(tree, {"b", "c"})

    def test_attribute_charset(self):
        tree = at.parse_policy("user@example.com or dept:genome-lab_2")
        assert at.satisfies(tree, {"dept:genome-lab_2"})

    def test_case_insensitive_keywords(self):
        tree = at.parse_policy("a OR b")
        assert at.satisfies(tree, {"b"})

    @pytest.mark.parametrize(
        "bad", ["", "and", "a or", "(a", "a)", "2 of a", "a b", "3 of (a, b)"]
    )
    def test_bad_policies_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            at.parse_policy(bad)

    def test_format_roundtrip(self):
        for text in ["alice", "(a or b)", "(a and b)", "2 of (a, b, c)"]:
            tree = at.parse_policy(text)
            assert at.parse_policy(at.format_policy(tree)) == tree


class TestEncoding:
    def test_roundtrip(self):
        tree = at.and_of(
            at.or_of(at.Leaf("alice"), at.Leaf("bob")),
            at.threshold_of(2, at.Leaf("x"), at.Leaf("y"), at.Leaf("z")),
        )
        assert at.decode_tree(at.encode_tree(tree)) == tree

    def test_leaf_roundtrip(self):
        assert at.decode_tree(at.encode_tree(at.Leaf("solo"))) == at.Leaf("solo")

    def test_corrupt_tag_rejected(self):
        with pytest.raises(CorruptionError):
            at.decode_tree(b"\x07\x01a")

    def test_bad_threshold_rejected(self):
        # Hand-craft a gate with threshold 5 over 1 child.
        from repro.util.codec import Encoder

        data = Encoder().uint(1).uint(5).uint(1).uint(0).text("a").done()
        with pytest.raises(CorruptionError):
            at.decode_tree(data)

    def test_trailing_bytes_rejected(self):
        data = at.encode_tree(at.Leaf("a")) + b"x"
        with pytest.raises(CorruptionError):
            at.decode_tree(data)
