"""Deterministic generation of organization and domain names."""

from __future__ import annotations

from repro.determinism import key_bytes, prefix_hasher, stable_choice, stable_hash

_ADJECTIVES = (
    "blue", "rapid", "quiet", "solar", "iron", "amber", "polar", "vivid",
    "lunar", "crisp", "bold", "clear", "prime", "brisk", "calm", "deep",
    "early", "fresh", "grand", "keen", "lively", "mild", "noble", "open",
)

_NOUNS = (
    "falcon", "harbor", "matrix", "signal", "summit", "garden", "anchor",
    "beacon", "canyon", "delta", "ember", "forge", "glacier", "horizon",
    "island", "junction", "kernel", "lantern", "meadow", "nexus", "orbit",
    "prairie", "quarry", "river",
)

_ORG_SUFFIXES = ("Networks", "Systems", "Hosting", "Online", "Group", "Labs",
                 "Digital", "Telecom", "Cloud", "Media")

#: gTLDs plus the ccTLDs OpenINTEL covers; ``fr`` is special-cased by the
#: toplist schedule (added August 2022).
TLDS = ("com", "net", "org", "io", "de", "nl", "se", "dk", "fi", "fr")

#: One hash state per ``domain-*`` tag: a domain's three draws share the
#: encoding of its id (``stable_choice(options, tag, domain_id)``).
_DOMAIN_ADJ = prefix_hasher("domain-adj")
_DOMAIN_NOUN = prefix_hasher("domain-noun")
_DOMAIN_TLD = prefix_hasher("domain-tld")


def org_name(org_id: int) -> str:
    """A readable, unique organization name."""
    adjective = stable_choice(_ADJECTIVES, "orgname-adj", org_id)
    noun = stable_choice(_NOUNS, "orgname-noun", org_id)
    suffix = stable_choice(_ORG_SUFFIXES, "orgname-sfx", org_id)
    return f"{adjective.capitalize()}{noun.capitalize()} {suffix} {org_id}"


def domain_name(domain_id: int, tld: str | None = None) -> str:
    """A unique second-level domain; TLD chosen deterministically unless
    pinned by the caller (e.g. forced ``.fr`` for the ccTLD event)."""
    key = key_bytes(domain_id)
    adjective = _ADJECTIVES[_DOMAIN_ADJ(key) % len(_ADJECTIVES)]
    noun = _NOUNS[_DOMAIN_NOUN(key) % len(_NOUNS)]
    if tld is None:
        tld = TLDS[_DOMAIN_TLD(key) % (len(TLDS) - 1)]  # .fr pinned only
    return f"{adjective}-{noun}-{domain_id}.{tld}"


def host_label(deployment_id: int, slot: int) -> str:
    """A hostname label for generated CNAME targets."""
    return f"edge-{stable_hash('edge', deployment_id, slot) % 997:03d}"
