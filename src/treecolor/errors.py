"""Exception types shared across the package, and the reader of text
input files that reports undecodable bytes as one of them."""


class TreecolorError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(TreecolorError, ValueError):
    """Invalid palette, tuning, control, or CLI configuration."""


class DegenerateDistributionError(TreecolorError, ValueError):
    """Type distribution has no mass on positive-degree types, so the
    size-biased neighbor law is undefined."""


class SupercriticalError(TreecolorError, ArithmeticError):
    """Cascade growth is >= 1, so expected cascade quantities diverge."""


class GenerationError(TreecolorError, RuntimeError):
    """Random graph generation failed (too many pairing attempts)."""


class InsufficientDataError(TreecolorError, ValueError):
    """Estimator was given too few samples to produce a stable answer."""


class CertificateError(TreecolorError):
    """Base class for certificate file problems."""


class CertificateParseError(CertificateError, ValueError):
    """Certificate file is malformed; the message names the offending field."""


class CertificateVerificationError(CertificateError):
    """Certificate parsed cleanly but its stored values do not recompute."""


class ComparisonFailureError(TreecolorError, RuntimeError):
    """Euler/ODE comparison could not be completed (e.g. supercriticality)."""


class InternalConsistencyError(TreecolorError, AssertionError):
    """A process invariant that should be unbreakable was broken."""


def read_text(path: str, error: type[TreecolorError]) -> str:
    """Contents of the UTF-8 text file at `path`.  Bytes that are not UTF-8
    raise `error` naming the file; OSError passes through."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
