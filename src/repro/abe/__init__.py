"""Policy-based encryption: access trees + CP-ABE-style hybrid encryption."""

from repro.abe.access_tree import (
    Gate,
    Leaf,
    Node,
    and_of,
    attributes_of,
    format_policy,
    leaf_count,
    or_of,
    or_of_identifiers,
    parse_policy,
    satisfies,
    threshold_of,
)
from repro.abe.cpabe import (
    AbeCiphertext,
    AbeOpener,
    AbeSealer,
    AttributeAuthority,
    PrivateAccessKey,
    abe_decrypt,
    abe_encrypt,
)

__all__ = [
    "AbeCiphertext",
    "AbeOpener",
    "AbeSealer",
    "AttributeAuthority",
    "Gate",
    "Leaf",
    "Node",
    "PrivateAccessKey",
    "abe_decrypt",
    "abe_encrypt",
    "and_of",
    "attributes_of",
    "format_policy",
    "leaf_count",
    "or_of",
    "or_of_identifiers",
    "parse_policy",
    "satisfies",
    "threshold_of",
]
