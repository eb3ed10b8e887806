"""License identities, embedded texts, and content-based recognition.

The CLI's parser reads ``CLI_CHOICES`` on every run, so this module loads
only ``enum``; ``importlib.resources`` is imported by ``license_text``, the
one function that reads a shipped text.
"""

from __future__ import annotations

import enum


class LicenseKind(str, enum.Enum):
    """Licenses this toolchain can write and recognize."""

    CC_BY_4 = "cc-by-4.0"
    CC0_1 = "cc0-1.0"
    ODBL_1 = "odbl-1.0"
    UNKNOWN = "unknown"


#: SPDX identifiers for the licenses we can emit.
SPDX_IDS: dict[LicenseKind, str] = {
    LicenseKind.CC_BY_4: "CC-BY-4.0",
    LicenseKind.CC0_1: "CC0-1.0",
    LicenseKind.ODBL_1: "ODbL-1.0",
}

#: Short names accepted on the command line.
CLI_CHOICES: dict[str, LicenseKind] = {
    "ccby": LicenseKind.CC_BY_4,
    "cc0": LicenseKind.CC0_1,
    "odbl": LicenseKind.ODBL_1,
}

_TEXT_FILES: dict[LicenseKind, str] = {
    LicenseKind.CC_BY_4: "cc-by-4.0.txt",
    LicenseKind.CC0_1: "cc0-1.0.txt",
    LicenseKind.ODBL_1: "odbl-1.0.txt",
}

# Normalized title lines.  Each fingerprint occurs in exactly one of the
# three shipped texts, so recognition stays unambiguous.
_FINGERPRINTS: dict[LicenseKind, str] = {
    LicenseKind.CC_BY_4: "creative commons attribution 4.0 international",
    LicenseKind.CC0_1: "cc0 1.0 universal",
    LicenseKind.ODBL_1: "open database license (odbl)",
}


def normalize_license_text(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return " ".join(text.lower().split())


def detect_license(text: str) -> LicenseKind:
    """Recognize a license from its full text.

    Returns the matching kind when exactly one known fingerprint occurs in
    the normalized text, and ``UNKNOWN`` otherwise (no match, or a text that
    somehow matches several).
    """
    normalized = normalize_license_text(text)
    matches = [kind for kind, mark in _FINGERPRINTS.items() if mark in normalized]
    if len(matches) == 1:
        return matches[0]
    return LicenseKind.UNKNOWN


def license_text(kind: LicenseKind) -> str:
    """Return the verbatim text for one of the three supported licenses."""
    try:
        filename = _TEXT_FILES[kind]
    except KeyError:
        options = ", ".join(sorted(k.value for k in _TEXT_FILES))
        raise ValueError(f"no text for license {kind.value!r}; choose one of: {options}") from None
    from importlib import resources

    return resources.files(__package__).joinpath("licenses", filename).read_text(encoding="utf-8")
