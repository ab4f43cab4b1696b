"""Exception types shared across the lab.

The split matters for the attack demos: precondition rejections (these
exceptions) must stay distinguishable from a failed signature verification,
which is reported as a plain ``None`` result, never as an exception.
"""


class HlsLabError(Exception):
    """Base class for all package-specific errors."""


class NotInvertibleError(HlsLabError, ValueError):
    """The element has no modular inverse (gcd with the modulus is not 1)."""


class ResourceLimitError(HlsLabError):
    """An exhaustive-enumeration operation was asked to exceed its size limit."""


class NotFoundError(HlsLabError):
    """An exhaustive search ran to completion without a match."""


class HardenedRefusalError(HlsLabError):
    """Hardened mode or a strict CA policy refused a weakness-enabling input."""


class KeyControlError(HardenedRefusalError):
    """Hardened key derivation refused a degenerate shared point."""


class InvalidEphemeralKeyError(HardenedRefusalError):
    """Hardened unsigncryption rejected the ephemeral point before using it."""


class ForcedEphemeralError(HardenedRefusalError):
    """Hardened signcryption does not accept caller-supplied ephemerals."""


class ZeroHashError(HardenedRefusalError):
    """Hardened signcryption refused a message whose bound hash is zero."""


class MismatchedLeakError(HlsLabError):
    """A leaked ephemeral scalar does not correspond to the intercepted point."""


class OracleRefusedError(HlsLabError):
    """A cooperating-party oracle declined to serve the request."""


class PopRequiredError(HardenedRefusalError):
    """CA policy demands a proof of possession and none was supplied."""


class PopInvalidError(HardenedRefusalError):
    """The supplied proof of possession did not verify."""


class PublicKeyInvalidError(HardenedRefusalError):
    """CA policy demands public-key validation and the key failed it."""
