"""SHA-256 digests of an enumeration report, for tests that pin a found set,
its shape tags and its text as first recorded, and of canonical keys and
orders."""

import hashlib


def found_digest(report):
    """SHA-256 of the found set's canonical keys, sorted, one per line."""
    return hashlib.sha256(b"\n".join(sorted(report.found))).hexdigest()


def shape_digest(report):
    """SHA-256 of the found set's (key, shape tag) pairs, sorted, one per
    line as the key in hex and the tag."""
    text = "\n".join(f"{key.hex()} {tag}" for key, tag in sorted(report.shape_tags.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def text_digest(report):
    """SHA-256 of the report's text: every found diagram as labelled, and
    the header."""
    return hashlib.sha256(report.to_text().encode()).hexdigest()


def key_digest(diagrams):
    """SHA-256 of the diagrams' (canonical key, canonical order) pairs,
    sorted, one per line as the key in hex and the order."""
    lines = sorted(f"{g.canonical_key().hex()} {','.join(map(str, g.canonical_order()))}"
                   for g in diagrams)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
