"""Cryptanalysis laboratory for an elliptic-curve signcryption scheme.

The package implements the scheme twice over shared machinery: a vulnerable
mode faithful to the original design and a hardened mode that adds every
missing validation. Alongside sit the attacks those missing validations
enable - ephemeral-leak key recovery, invalid-curve key extraction through a
confirmation oracle, identity misbinding against a lax CA, forward-secrecy
violation, and the degenerate r = 0 and K = O flows - plus the certificate,
public-key, and domain-parameter checklists that stop them.

Everything runs at desk scale: a 19-point toy curve for hand-checkable
traces, a mid-size prime-order curve for the CRT-based recovery, and
secp256k1 for realistic-parameter round trips.
"""

__version__ = "0.1.0"
