"""Exception types shared across the package."""


class LlrsegError(Exception):
    """Base class for all package-specific errors."""


# --- file format / data model ---

class BadMagic(LlrsegError):
    pass


class BadHeader(LlrsegError):
    pass


class TruncatedPayload(LlrsegError):
    pass


class NonFinite(LlrsegError):
    def __init__(self, position, msg=None):
        self.position = position
        super().__init__(msg or f"non-finite value at position {position}")


class DimMismatch(LlrsegError):
    pass


class IllegalLabel(LlrsegError):
    def __init__(self, value, position):
        self.value = value
        self.position = position
        super().__init__(f"illegal label {value} at position {position}")


class DigestMismatch(LlrsegError):
    pass


class BadBundle(LlrsegError):
    """A model bundle directory that is incomplete or of another format version."""


# --- densities / fitting ---

class DegenerateCovariance(LlrsegError):
    pass


class InvalidCost(LlrsegError):
    pass


# --- neural core / training ---

class AllIgnored(LlrsegError):
    pass


class NonFiniteGradient(LlrsegError):
    def __init__(self, tensor_name):
        self.tensor_name = tensor_name
        super().__init__(f"non-finite gradient in tensor {tensor_name!r}")


class StaleTape(LlrsegError):
    pass


class FreezeViolation(LlrsegError):
    pass


# --- metrics ---

class OneClassOnly(LlrsegError):
    pass
