"""Exception hierarchy shared by all cubeforge modules."""

from __future__ import annotations


class CubeforgeError(Exception):
    """Base class for every error raised by this package."""


# --- kernel ---

class ZeroPolynomial(CubeforgeError):
    """An operation that needs a nonzero polynomial received zero."""


class DegenerateInput(CubeforgeError):
    """A resultant was requested for a polynomial of degree 0 in the variable."""


class InexactDivision(CubeforgeError):
    """An exact polynomial division left a remainder (internal invariant)."""


# --- cfinite ---

class PoleAtOrigin(CubeforgeError):
    """A generating function denominator vanishes at t = 0."""


class GuessFailed(CubeforgeError):
    """No linear recurrence of admissible order fits the given terms."""


class NonIntegralGF(CubeforgeError):
    """Reconstruction produced non-integer generating function coefficients."""


class UnboundSymbol(CubeforgeError):
    """An expression mentions a symbol with no sequence bound to it."""


# --- quadform ---

class InvalidForm(CubeforgeError):
    """Text or polynomial does not describe a binary quadratic form."""


class _DeferredText(CubeforgeError):
    """An error whose text is formatted only when it is read: given more
    than one argument, the text is ``args[0].format(*args[1:])``, so a
    caller that catches the error and drops it formats nothing.  A single
    argument is the text itself."""

    def __str__(self) -> str:
        if len(self.args) > 1:
            return self.args[0].format(*self.args[1:])
        return super().__str__()


class DefiniteForm(_DeferredText):
    """The form has negative discriminant, so every target value has only
    finitely many representations and no infinite orbit exists."""


class NoOrbitFound(_DeferredText):
    """Orbit search exhausted every target class without a certified orbit."""


class DegenerateInitialVectors(CubeforgeError):
    """The two initial vectors of the quadratic-form constructor are
    proportional (c0*d1 - c1*d0 = 0)."""


class ZeroB(CubeforgeError):
    """The Pell construction requires a nonzero scaling integer b."""


# --- cubic ---

class InvalidQuadruple(CubeforgeError):
    """Numbers fail the weighted cubic equation or the primitivity invariant."""


# --- forge ---

class EmptySeedSet(CubeforgeError):
    """No nontrivial numeric quadruple exists within the search bound."""


class MalformedTheorem(CubeforgeError):
    """A theorem, serialized or built, has an unusable generating function,
    schema or right-hand kind."""


# --- concoct ---

class EliminationCollapse(CubeforgeError):
    """An intermediate resultant vanished identically; the equation pairing
    can be permuted and retried by the caller."""


class SingularSubstitution(CubeforgeError):
    """The substitution matrix is singular."""


class NoForm(CubeforgeError):
    """The evaluation matrix has a trivial nullspace: no form of the
    requested degree relates the sequences."""


class NoTargetedForm(CubeforgeError):
    """Forms exist but none involves the requested target column.  The
    homogeneous vanishing forms are attached as ``vanishing``."""

    def __init__(self, message: str, vanishing=None):
        super().__init__(message)
        self.vanishing = list(vanishing) if vanishing is not None else []


# --- cli ---

class ParseError(CubeforgeError):
    """Polynomial text rejected; carries the 1-based character position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"{message} at position {position}")
        self.position = position
