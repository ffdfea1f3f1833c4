"""Typed request validation for the coverage service.

Modeled on the validation layer of a production multi-user Python service
(cdedb2's ``cdedb/validation.py``): every field of an incoming JSON job is
checked by a small *typed validator* (``_str`` / ``_int`` / ``_float`` /
``_bool`` / ``_enum`` / ...), each failure is a :class:`ValidationError`
naming the offending field, and :func:`validate_request` collects **all**
failures of a request into one :class:`RequestValidationError` — the HTTP
layer turns that into a structured 400 body

.. code-block:: json

    {"ok": false, "error": "validation",
     "errors": [{"field": "engine", "message": "unknown engine 'warp'"},
                {"field": "bound", "message": "must be >= 0"}]}

so a client sees every problem with its request at once instead of fixing
them one round-trip at a time.  Unknown fields are rejected (a typo like
``"desing"`` must not silently fall back to a default).

The output of validation is a frozen :class:`~repro.service.jobs.JobRequest`
— the execution layer never touches raw JSON.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ValidationError",
    "RequestValidationError",
    "validate_request",
    "JOB_KINDS",
]

#: The job kinds the service accepts (each is one ``POST /v1/<kind>``).
JOB_KINDS = ("check", "analyze", "suite")

#: Hard ceilings a single request may ask for, regardless of server
#: configuration — defense against one client monopolising the daemon.
MAX_BOUND = 64
MAX_WITNESSES = 16
MAX_DEPTH = 16
MAX_RANDOM_DESIGNS = 16
MAX_SUITE_WORKERS = 8
MAX_TIMEOUT_SECONDS = 600.0


class ValidationError(ValueError):
    """One field of a request failed validation."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def entry(self) -> Dict[str, str]:
        return {"field": self.field, "message": self.message}


class RequestValidationError(ValueError):
    """A request failed validation; carries every field failure."""

    def __init__(self, errors: List[ValidationError]):
        summary = "; ".join(str(error) for error in errors) or "invalid request"
        super().__init__(summary)
        self.errors = list(errors)

    def entries(self) -> List[Dict[str, str]]:
        """JSON-ready ``[{"field", "message"}, ...]`` (the 400 body)."""
        return [error.entry() for error in self.errors]

    @classmethod
    def single(cls, field: str, message: str) -> "RequestValidationError":
        """A one-failure instance (transport-level problems like a bad body)."""
        return cls([ValidationError(field, message)])


# -- typed field validators ----------------------------------------------------
#
# Each takes (value, field) and returns the normalised value or raises
# ValidationError.  They are deliberately strict: JSON already distinguishes
# numbers from strings from booleans, so there is no string coercion — a
# client sending `"bound": "12"` has a bug worth surfacing.


def _str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(field, f"expected a string, got {type(value).__name__}")
    return value


def _bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(field, f"expected a boolean, got {type(value).__name__}")
    return value


def _int(value, field: str, *, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    # bool is a subclass of int; `"bound": true` must not validate.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(field, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValidationError(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(field, f"must be <= {maximum}, got {value}")
    return value


def _float(
    value, field: str, *, minimum: Optional[float] = None, maximum: Optional[float] = None
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected a number, got {type(value).__name__}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValidationError(field, "must be a finite number")
    if minimum is not None and value < minimum:
        raise ValidationError(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(field, f"must be <= {maximum}, got {value}")
    return value


def _design(value, field: str) -> str:
    from ..designs import design_names

    name = _str(value, field)
    if name not in design_names():
        known = ", ".join(design_names())
        raise ValidationError(field, f"unknown design {name!r} (known: {known})")
    return name


def _design_list(value, field: str) -> Tuple[str, ...]:
    if not isinstance(value, list):
        raise ValidationError(field, f"expected a list of design names, got {type(value).__name__}")
    names: List[str] = []
    errors: List[ValidationError] = []
    for i, item in enumerate(value):
        try:
            names.append(_design(item, f"{field}[{i}]"))
        except ValidationError as error:
            errors.append(error)
    if errors:
        # Every bad entry is reported, not just the first.
        raise RequestValidationError(errors)
    return tuple(names)


def _engine(value, field: str) -> str:
    from ..engines import engine_names

    name = _str(value, field)
    if name not in engine_names():
        known = ", ".join(engine_names())
        raise ValidationError(field, f"unknown engine {name!r} (known: {known})")
    return name


def _timeout(value, field: str) -> float:
    return _float(value, field, minimum=0.01, maximum=MAX_TIMEOUT_SECONDS)


def _bound(value, field: str) -> int:
    return _int(value, field, minimum=0, maximum=MAX_BOUND)


def _index(value, field: str) -> int:
    return _int(value, field, minimum=0)


# -- request schemas -----------------------------------------------------------
#
# field -> (validator, required, default).  `None` stored for an optional
# field means "use the server/CLI default".

_Validator = Callable[[object, str], object]

_COMMON: Dict[str, Tuple[_Validator, bool, object]] = {
    "engine": (_engine, False, "explicit"),
    "bound": (_bound, False, 12),
    "timeout": (_timeout, False, None),
}

_SCHEMAS: Dict[str, Dict[str, Tuple[_Validator, bool, object]]] = {
    "check": {
        **_COMMON,
        "design": (_design, True, None),
        "index": (_index, False, None),
    },
    "analyze": {
        **_COMMON,
        "design": (_design, True, None),
        "max_witnesses": (lambda v, f: _int(v, f, minimum=0, maximum=MAX_WITNESSES), False, 3),
        "depth": (lambda v, f: _int(v, f, minimum=1, maximum=MAX_DEPTH), False, 5),
        "witnesses": (_bool, False, True),
    },
    "suite": {
        **_COMMON,
        "designs": (_design_list, False, None),
        "random": (lambda v, f: _int(v, f, minimum=0, maximum=MAX_RANDOM_DESIGNS), False, 0),
        "seed": (lambda v, f: _int(v, f), False, 0),
        "include_signals": (_bool, False, True),
        "workers": (lambda v, f: _int(v, f, minimum=1, maximum=MAX_SUITE_WORKERS), False, 1),
        "shard_timeout": (_timeout, False, None),
    },
}


def validate_request(kind: str, payload: object) -> "JobRequest":
    """Validate a raw JSON job body into a frozen :class:`JobRequest`.

    Raises :class:`RequestValidationError` carrying *every* field failure:
    wrong body type, unknown fields, missing required fields and per-field
    type/range violations are all collected before raising.
    """
    from .jobs import JobRequest

    errors: List[ValidationError] = []
    if kind not in _SCHEMAS:
        known = ", ".join(JOB_KINDS)
        raise RequestValidationError(
            [ValidationError("kind", f"unknown job kind {kind!r} (known: {known})")]
        )
    if not isinstance(payload, dict):
        raise RequestValidationError(
            [ValidationError("body", f"expected a JSON object, got {type(payload).__name__}")]
        )

    schema = _SCHEMAS[kind]
    values: Dict[str, object] = {}
    for field in sorted(payload):
        if field == "kind":
            if payload[field] != kind:
                errors.append(
                    ValidationError("kind", f"body kind {payload[field]!r} does not match endpoint {kind!r}")
                )
            continue
        if field not in schema:
            errors.append(ValidationError(field, "unknown field"))
    for field, (validator, required, default) in sorted(schema.items()):
        if field in payload:
            try:
                values[field] = validator(payload[field], field)
            except RequestValidationError as error:
                errors.extend(error.errors)
            except ValidationError as error:
                errors.append(error)
        elif required:
            errors.append(ValidationError(field, "required field is missing"))
        else:
            values[field] = default
    if errors:
        raise RequestValidationError(errors)
    return JobRequest(kind=kind, **values)
