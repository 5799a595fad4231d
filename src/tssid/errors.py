"""Exception hierarchy for tssid.

Every error carries an ``exit_code`` used by the command line driver:

* 2 -- configuration or data validation problem (bad input, bad config)
* 3 -- filesystem / I/O problem
* 4 -- computation failed (rank deficiency, empty model, missing artifact)

Errors raised by library functions are ordinary exceptions; the CLI maps
them onto process exit codes in one place (``tssid.cli.main``).
"""

from __future__ import annotations


class TssidError(Exception):
    """Base class for all tssid errors."""

    exit_code = 2


class ConfigError(TssidError):
    """Malformed or incomplete run configuration."""

    exit_code = 2


class IoError(TssidError):
    """Missing files, unreadable artifacts, malformed on-disk formats."""

    exit_code = 3


class ComputationError(TssidError):
    """A numeric procedure could not produce a usable result."""

    exit_code = 4


# --- flight data -----------------------------------------------------------

class MissingChannel(TssidError):
    """A required channel is absent from a file or record."""


class NonNumericCell(TssidError):
    """A CSV cell failed to parse as a finite number.

    ``row`` is the 1-based data row (header excluded), ``col`` the channel
    name.
    """

    def __init__(self, row: int, col: str, value: str = ""):
        self.row = int(row)
        self.col = str(col)
        self.value = value
        detail = f" (got {value!r})" if value else ""
        super().__init__(f"non-numeric cell at row={self.row}, col={self.col}{detail}")


class LengthMismatch(TssidError):
    """Series that must share a length do not."""


class ZeroVariance(TssidError):
    """A channel is constant where variation is required."""


class DegenerateChannel(TssidError):
    """Channel min equals max; a min-max scale cannot be fitted."""


class UnknownChannel(TssidError):
    """A channel name has no fitted scaler parameters / is not recognised."""


class OverlappingIds(TssidError):
    """Train/validation/test memberships intersect."""


class IncompleteSplit(TssidError):
    """Explicit split lists do not cover the corpus exactly."""


class TargetExcluded(TssidError):
    """Feature selection rules would drop the prediction target."""


# --- synthetic generator ---------------------------------------------------

class InvalidFrequencyBand(TssidError):
    """Chirp frequencies fall outside (0, Nyquist)."""


class UnstableParameters(TssidError):
    """Ground-truth ODE parameters describe an unstable or invalid plant."""


# --- sparse identification -------------------------------------------------

class DegreeTooHigh(TssidError):
    """Requested polynomial library degree is outside the supported range."""


class SeriesTooShort(TssidError):
    """A segment is too short for the requested derivative stencil."""


class RankDeficient(ComputationError):
    """Least squares on the active set lost rank with no ridge to regularise."""


class NoActiveTerms(ComputationError):
    """Thresholding removed every candidate term from a fitted equation."""


class MissingInitialDerivative(TssidError):
    """Second order simulation started without an initial state derivative."""


# --- neural ----------------------------------------------------------------

class DimensionMismatch(TssidError):
    """Input width does not match the network's input layer."""


class ShapeMismatch(TssidError):
    """Serialized parameter block does not match the declared architecture."""


class EmptyDataset(TssidError):
    """No usable training samples or windows."""


# --- pipeline artifacts ------------------------------------------------------

class MissingArtifact(ComputationError):
    """An upstream artifact (model file, weights) has not been produced yet."""


class FingerprintMismatch(ComputationError):
    """A loaded artifact was produced under a different configuration."""


# --- evaluation ------------------------------------------------------------

class MissingPrediction(TssidError):
    """A scored flight has no prediction series."""


class EmptySeries(TssidError):
    """A metric was asked to score an empty series."""


class NonPositiveFlightMean(TssidError):
    """Flight mean torque is zero or negative; rMAE is undefined."""


class FlightSetMismatch(TssidError):
    """Model comparison requires identical flight sets across reports."""
