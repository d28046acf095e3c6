"""File policies: which users may access a file.

REED's default policy is an OR gate over the unique identifier
attributes of all authorized users (Section IV-C); revoking users simply
removes their identifiers before the next rekey.  :class:`FilePolicy`
wraps that common case while still accepting an arbitrary access-tree
expression for richer attribute-based policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abe import access_tree as at
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class FilePolicy:
    """A policy, carried as its canonical text form plus the parsed tree."""

    text: str
    tree: at.Node

    @classmethod
    def for_users(cls, user_ids: list[str]) -> "FilePolicy":
        """The REED default: any one of ``user_ids`` may access the file."""
        tree = at.or_of_identifiers(sorted(user_ids))
        return cls(text=at.format_policy(tree), tree=tree)

    @classmethod
    def parse(cls, text: str) -> "FilePolicy":
        return cls(text=text, tree=at.parse_policy(text))

    @property
    def authorized_users(self) -> list[str]:
        """The identifier leaves (for OR-of-identifiers policies)."""
        return sorted(at.attributes_of(self.tree))

    def allows(self, attributes: set[str]) -> bool:
        return at.satisfies(self.tree, attributes)

    def without_users(self, revoked: set[str]) -> "FilePolicy":
        """Derive the post-revocation policy by dropping identifiers.

        Only a single leaf or a 1-of-n gate over leaves is accepted:
        rebuilding any other tree as an OR of its attributes would widen
        access (``(alice or bob) and dept:eng`` minus bob is not
        ``alice or dept:eng``).  Revoking every authorized user is
        rejected (a file must keep at least one reader, its owner).
        """
        tree = self.tree
        if isinstance(tree, at.Gate) and (
            tree.threshold != 1
            or not all(isinstance(child, at.Leaf) for child in tree.children)
        ):
            raise ConfigurationError(
                f"cannot revoke users from {self.text!r}: only an OR over "
                "identifiers drops users without widening access"
            )
        remaining = [uid for uid in self.authorized_users if uid not in revoked]
        if not remaining:
            raise ConfigurationError("cannot revoke every authorized user")
        return FilePolicy.for_users(remaining)
