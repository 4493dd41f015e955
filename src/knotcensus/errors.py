"""Exception types shared across the package."""

from __future__ import annotations


class KnotCensusError(Exception):
    """Base class for package-specific failures."""


class SamplingExhausted(KnotCensusError):
    """Random point sampling hit its retry budget without reaching general
    position.  Usually means the coordinate range is too small for the
    requested vertex count."""

    def __init__(self, attempts: int, coord_range: int):
        self.attempts = attempts
        self.coord_range = coord_range
        super().__init__(
            f"no general-position configuration after {attempts} attempts "
            f"(coordinate range {coord_range})"
        )


class GenericityFailure(KnotCensusError):
    """A projection frame violated one of the regular-diagram conditions.

    Carries the violated condition name and a small witness tuple; callers
    normally retry with the next frame in the deterministic sequence.
    """

    def __init__(self, condition: str, detail=None):
        self.condition = condition
        self.detail = detail
        msg = f"projection not generic: {condition}"
        if detail is not None:
            msg += f" {detail!r}"
        super().__init__(msg)


class GenericityExhausted(KnotCensusError):
    """Every frame in the retry budget failed a genericity check."""

    def __init__(self, attempts: int, last: GenericityFailure | None = None):
        self.attempts = attempts
        self.last = last
        super().__init__(f"no generic projection frame after {attempts} attempts")


class InvariantContractError(KnotCensusError):
    """An exactness contract failed: two generic frames disagreed on an
    invariant, or a computed value is impossible for the embedding class.
    Indicates an engine defect or invalid input, never bad luck."""


class ScaleLimitExceeded(KnotCensusError):
    """A Hamiltonian-scale computation was requested above the default
    size ceiling without the explicit override."""


class IdentityViolation(KnotCensusError):
    """An unconditionally true identity failed to balance.

    The theorems verified here hold for every valid embedding, so this
    always signals an engine defect; the failing report is attached.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"identity {report.identity_id} violated at n={report.n}: "
            f"lhs={report.lhs} rhs={report.rhs}"
        )
