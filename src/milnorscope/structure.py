"""Symbolic structure of a diagonal mixed polynomial.

Everything here is exact: critical indices, the colinearity partition,
the critical set as a union of coordinate subspaces, the image of the
critical set (rays and lines through the origin), radial weights, and a
sufficient-condition verdict about the existence of a Milnor tube
fibration.  Floating point appears only in convenience fields (angles,
real coefficient magnitudes) derived from the exact data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .mixed import ComplexRational, DiagonalMixedPolynomial


def critical_indices(psi: DiagonalMixedPolynomial) -> frozenset[int]:
    """Indices j whose term has equal plain and conjugate exponents."""
    return frozenset(t.j for t in psi.terms if t.a == t.b)


def _primitive(c: ComplexRational) -> ComplexRational:
    """Scale a nonzero Gaussian rational to coprime integers, keeping orientation."""
    d = lcm(c.re.denominator, c.im.denominator)
    u = c.re.numerator * (d // c.re.denominator)
    v = c.im.numerator * (d // c.im.denominator)
    g = gcd(abs(u), abs(v))
    return ComplexRational(Fraction(u // g), Fraction(v // g))


@dataclass(frozen=True)
class ColinearityClass:
    """A set of indices whose coefficients are R-colinear.

    In a partition the set is a maximal set of critical indices.
    `direction` is the primitive integer representative of the
    coefficient of the smallest index, so that member's ratio is
    positive.  `ratios[j]` is the exact rational t_j with
    lambda_j = t_j * direction.
    """

    indices: tuple[int, ...]
    direction: ComplexRational
    ratios: dict[int, Fraction] = field(compare=False)
    theta: float = field(compare=False)

    @property
    def all_same_argument(self) -> bool:
        return all(t > 0 for t in self.ratios.values())

    def mu(self, j: int) -> float:
        """Real coefficient of index j along the unit direction e^{i theta}."""
        d = self.direction
        scale = math.hypot(float(d.re), float(d.im))
        return float(self.ratios[j]) * scale


def _colinear_class(psi: DiagonalMixedPolynomial,
                    indices: tuple[int, ...]) -> ColinearityClass:
    # the caller guarantees the coefficients on `indices` are colinear, so
    # each is t * direction with t rational
    direction = _primitive(psi.term_for(indices[0]).coeff)
    den = direction.dot(direction)
    ratios = {j: psi.term_for(j).coeff.dot(direction) / den for j in indices}
    theta = math.atan2(float(direction.im), float(direction.re))
    return ColinearityClass(indices, direction, ratios, theta)


def _linear_indices(psi: DiagonalMixedPolynomial) -> tuple[int, ...]:
    return tuple(t.j for t in psi.terms if (t.a, t.b) in ((1, 0), (0, 1)))


def _missing_indices(psi: DiagonalMixedPolynomial) -> tuple[int, ...]:
    return tuple(j for j in range(1, psi.n + 1) if psi.term_for(j) is None)


@dataclass(frozen=True)
class CriticalIndexPartition:
    """The colinearity classes, with the index lists every builder reads.

    `linear` holds the indices whose term is z_j or conj(z_j) (times a
    coefficient), `missing` the variables with no term.
    """

    critical: frozenset[int]
    classes: tuple[ColinearityClass, ...]
    linear: tuple[int, ...]
    missing: tuple[int, ...]


def colinearity_classes(psi: DiagonalMixedPolynomial) -> CriticalIndexPartition:
    """Partition the critical indices by R-colinearity of coefficients.

    Colinearity of lambda_j and lambda_k is tested by the exact cross
    product Re(lambda_j) Im(lambda_k) - Im(lambda_j) Re(lambda_k); it is
    an equivalence relation because the coefficients are nonzero.
    """
    crit = sorted(critical_indices(psi))
    classes = []
    used = set()
    for j in crit:
        if j in used:
            continue
        lam_j = psi.term_for(j).coeff
        members = tuple(k for k in crit
                        if k not in used and lam_j.cross(psi.term_for(k).coeff) == 0)
        used.update(members)
        classes.append(_colinear_class(psi, members))
    return CriticalIndexPartition(frozenset(crit), tuple(classes),
                                  _linear_indices(psi), _missing_indices(psi))


# ----------------------------------------------------------------------
# critical set


@dataclass(frozen=True)
class CriticalSubspace:
    """Coordinate subspace {z : z_k = 0 for k in zero_indices}."""

    class_indices: tuple[int, ...]
    zero_indices: tuple[int, ...]
    free_indices: tuple[int, ...]

    @property
    def real_dim(self) -> int:
        return 2 * len(self.free_indices)


@dataclass(frozen=True)
class CriticalSetDescription:
    subspaces: tuple[CriticalSubspace, ...]
    note: str | None = None


def _critical_set(psi: DiagonalMixedPolynomial,
                  part: CriticalIndexPartition) -> CriticalSetDescription:
    """The critical set as a union of coordinate subspaces, one per class.

    For each colinearity class J the subspace sets every other occurring
    coordinate to zero; coordinates with no term stay free.  A term of
    plain or conjugate degree one forces an empty critical set since its
    differential never vanishes.  Degenerate shapes (no critical
    indices, all indices critical, absent variables) carry a note.
    """
    missing = part.missing
    if part.linear:
        return CriticalSetDescription(
            (), note=f"empty: the term in z{part.linear[0]} has a nowhere-zero differential")
    present = sorted(t.j for t in psi.terms)
    notes = []
    if missing:
        notes.append("variables " + ", ".join(f"z{j}" for j in missing)
                     + " do not occur and stay free on every subspace")
    subspaces = []
    if not part.critical:
        zero = tuple(present)
        free = missing
        subspaces.append(CriticalSubspace((), zero, free))
        notes.append("no critical indices: the critical set is the origin"
                     if not missing else "no critical indices")
    else:
        if len(part.critical) == psi.n:
            notes.append("all indices are critical; the subspace union is the "
                         "closure of the generic stratum and may be proper")
        for cls in part.classes:
            zero = tuple(j for j in present if j not in cls.indices)
            free = tuple(sorted(set(cls.indices) | set(missing)))
            subspaces.append(CriticalSubspace(cls.indices, zero, free))
    return CriticalSetDescription(tuple(subspaces), note="; ".join(notes) or None)


# ----------------------------------------------------------------------
# discriminant


@dataclass(frozen=True)
class DiscriminantComponent:
    """Image of one critical subspace: a ray or full line through 0.

    On the subspace of class J the polynomial evaluates to
    e^{i theta} * sum_j mu_j |z_j|^{2 a_j}, so the image is the ray
    through `direction` when all mu_j are positive and the full line
    otherwise.
    """

    class_indices: tuple[int, ...]
    direction: ComplexRational
    kind: str  # "ray" or "full_line"


@dataclass(frozen=True)
class DiscriminantGeometry:
    components: tuple[DiscriminantComponent, ...]
    has_complete_line: bool
    note: str | None = None


def _discriminant(psi: DiagonalMixedPolynomial,
                  part: CriticalIndexPartition) -> DiscriminantGeometry:
    """Geometry of the set of critical values."""
    if part.linear:
        return DiscriminantGeometry((), False, note="empty critical set")
    if not part.critical:
        return DiscriminantGeometry((), False,
                                    note="critical values reduce to the origin")
    comps = []
    for cls in part.classes:
        kind = "ray" if cls.all_same_argument else "full_line"
        comps.append(DiscriminantComponent(cls.indices, cls.direction, kind))
    has_line = any(c.kind == "full_line" for c in comps)
    return DiscriminantGeometry(tuple(comps), has_line, note=None)


# ----------------------------------------------------------------------
# radial weights


@dataclass(frozen=True)
class RadialWeights:
    """Integer weights p_j with psi(t^{p_j} z_j) = t^degree psi(z) for t > 0."""

    degree: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(v, int) and v > 0 for v in (self.degree, *self.weights)):
            raise ValueError(f"radial weights need a positive integer degree and "
                             f"weights, got {self.degree!r}, {self.weights!r}")


def radial_weights(psi: DiagonalMixedPolynomial) -> RadialWeights:
    """Weights from term degrees: degree = lcm(a_j + b_j), p_j = degree / (a_j + b_j).

    Raises ValueError when some variable has no term, since no weight
    can be assigned to it.
    """
    if len(psi.terms) < psi.n:
        raise ValueError("radial weights undefined: no term in "
                         + ", ".join(f"z{j}" for j in _missing_indices(psi)))
    a = lcm(*(t.degree for t in psi.terms))
    weights = tuple(a // psi.term_for(j).degree for j in range(1, psi.n + 1))
    return RadialWeights(a, weights)


# ----------------------------------------------------------------------
# zero set of the critical values


def _sigma_cap_v(psi: DiagonalMixedPolynomial,
                 part: CriticalIndexPartition) -> tuple[bool, dict]:
    """Whether the critical set meets the zero set only at the origin.

    On the subspace of class J the value is e^{i theta} sum mu_j s_j
    with s_j = |z_j|^{2 a_j} >= 0, so a nontrivial zero exists exactly
    when some class mixes signs, or when an absent variable leaves a
    free coordinate.  Returns (flag, certificate); the certificate
    carries per-class signs and an explicit witness point when the
    intersection is nontrivial.
    """
    if part.linear:
        return True, {"note": "empty critical set", "classes": [], "witness": None}
    missing = part.missing
    if missing:
        witness = [0j] * psi.n
        witness[missing[0] - 1] = 1 + 0j
        return False, {
            "note": f"z{missing[0]} has no term; the axis lies in both sets",
            "classes": [],
            "witness": [(w.real, w.imag) for w in witness]}
    cls_info = []
    witness = None
    for cls in part.classes:
        same = cls.all_same_argument
        cls_info.append({"indices": list(cls.indices),
                         "signs": [1 if cls.ratios[j] > 0 else -1 for j in cls.indices],
                         "same_sign": same})
        if not same and witness is None:
            jp = cls.indices[0]  # its ratio is positive by construction
            jn = next(j for j in cls.indices if cls.ratios[j] < 0)
            # balance mu_jp * s + mu_jn * u = 0 with s = 1
            u = -cls.ratios[jp] / cls.ratios[jn]
            z = [0j] * psi.n
            z[jp - 1] = 1 + 0j
            z[jn - 1] = complex(float(u) ** (1.0 / (2 * psi.term_for(jn).a)), 0.0)
            witness = [(w.real, w.imag) for w in z]
    trivial = witness is None
    return trivial, {"note": None, "classes": cls_info, "witness": witness}


# ----------------------------------------------------------------------
# special family


@dataclass(frozen=True)
class SpecialFamilyForm:
    """Shape sum_j mu_j (z_j zbar_j)^{a_j} + mu_o z_o^2 zbar_o (or conjugate),
    up to a common complex unit and renumbering of the variables.

    `odd_index` is the single non-critical index, with exponents (2, 1)
    or (1, 2); every other index is critical.  All coefficients lie on
    one real line through the origin, held in `line` as a
    ColinearityClass over every index.
    """

    odd_index: int
    odd_exponents: tuple[int, int]
    critical: tuple[int, ...]
    line: ColinearityClass

    def positive_block(self) -> tuple[int, ...]:
        return tuple(j for j in self.critical if self.line.ratios[j] > 0)

    def negative_block(self) -> tuple[int, ...]:
        return tuple(j for j in self.critical if self.line.ratios[j] < 0)


def special_family_form(psi: DiagonalMixedPolynomial) -> SpecialFamilyForm | None:
    """Match psi against the special family, or return None.

    Requirements: at least two variables, every variable occurs, exactly
    one index is non-critical with exponents (2,1) or (1,2), the rest
    are critical, and all coefficients are pairwise R-colinear.  The
    non-critical index may sit anywhere; the family is closed under
    renumbering.
    """
    if psi.n < 2 or len(psi.terms) < psi.n:
        return None
    odd = [t for t in psi.terms if t.a != t.b]
    if len(odd) != 1 or (odd[0].a, odd[0].b) not in ((2, 1), (1, 2)):
        return None
    crit = [t for t in psi.terms if t.a == t.b]
    if any(t.a < 1 for t in crit):
        return None
    ref = psi.terms[0].coeff
    if any(ref.cross(t.coeff) != 0 for t in psi.terms[1:]):
        return None
    return SpecialFamilyForm(odd[0].j, (odd[0].a, odd[0].b), tuple(t.j for t in crit),
                             _colinear_class(psi, tuple(t.j for t in psi.terms)))


# ----------------------------------------------------------------------
# verdict


class VerdictKind(enum.Enum):
    SUBMERSION = "Submersion"
    ISOLATED_CRITICAL_POINT = "IsolatedCriticalPoint"
    FIBRATION_MAIN_THEOREM = "FibrationMainTheorem"
    FIBRATION_SPECIAL_CASE = "FibrationSpecialCase"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class FibrationVerdict:
    kind: VerdictKind
    reasons: tuple[str, ...]
    preconditions: dict


def _verdict(psi: DiagonalMixedPolynomial, part: CriticalIndexPartition,
             disc: DiscriminantGeometry, trivial: bool,
             special: SpecialFamilyForm | None) -> FibrationVerdict:
    """Decide which sufficient fibration criterion applies, if any.

    The checks run in a fixed order: global submersion from linear
    terms, isolated critical point, the colinearity criterion for
    positive exponents, then the special family.  When none applies the
    verdict is Undetermined and the reasons list what failed; that is
    not a proof that no fibration exists.  `disc`, `trivial` and
    `special` are what `analyze` built from `psi` and `part`.
    """
    missing = part.missing
    crit = part.critical
    all_positive = not missing and all(t.a >= 1 and t.b >= 1 for t in psi.terms)
    same_arg = all(cls.all_same_argument for cls in part.classes)
    pre = {
        "critical_count": len(crit),
        "proper_critical_range": 0 < len(crit) < psi.n,
        "all_variables_occur": not missing,
        "all_exponents_positive": all_positive,
        "classes_all_same_argument": same_arg,
        "discriminant_has_complete_line": disc.has_complete_line,
        "sigma_cap_v_trivial": trivial,
        "special_family": special is not None,
    }

    linear = part.linear
    if linear:
        return FibrationVerdict(
            VerdictKind.SUBMERSION,
            (f"the term in z{linear[0]} is a nonzero multiple of z{linear[0]} or "
             f"conj(z{linear[0]}), whose real differential is invertible, so the "
             "differential is everywhere surjective",),
            pre)

    if not crit and not missing:
        return FibrationVerdict(
            VerdictKind.ISOLATED_CRITICAL_POINT,
            ("no critical indices: the critical set is at most the origin",),
            pre)

    if pre["proper_critical_range"] and all_positive and same_arg:
        return FibrationVerdict(
            VerdictKind.FIBRATION_MAIN_THEOREM,
            ("some but not all indices critical, all exponents positive, and "
             "each colinearity class sits on a single ray, so the critical "
             "values lie on finitely many rays through the origin and fill "
             "no complete line",),
            pre)

    if special is not None:
        return FibrationVerdict(
            VerdictKind.FIBRATION_SPECIAL_CASE,
            ("matches the family with one z^2 conj(z) (or z conj(z)^2) term and "
             "colinear coefficients, which fibers even though the critical "
             "values may fill a line",),
            pre)

    reasons = []
    if missing:
        reasons.append("variables " + ", ".join(f"z{j}" for j in missing)
                       + " do not occur, so the subspace criteria do not apply")
    if crit and not pre["proper_critical_range"]:
        reasons.append("every index is critical, outside the scope of the "
                       "colinearity criterion")
    if not crit and missing:
        reasons.append("no critical indices, but the critical set need not be "
                       "the origin with absent variables")
    if not all_positive and not missing:
        bad = [t.j for t in psi.terms if t.a < 1 or t.b < 1]
        reasons.append("terms in " + ", ".join(f"z{j}" for j in bad)
                       + " lack a plain or conjugate factor")
    if not same_arg:
        mixed_cls = [cls.indices for cls in part.classes if not cls.all_same_argument]
        reasons.append(f"classes {mixed_cls} mix coefficient signs, so the "
                       "critical values cover a full line")
    if not reasons:
        reasons.append("no sufficient criterion applies")
    return FibrationVerdict(VerdictKind.UNDETERMINED, tuple(reasons), pre)


# ----------------------------------------------------------------------
# report


@dataclass(frozen=True)
class StructureReport:
    psi: DiagonalMixedPolynomial
    partition: CriticalIndexPartition
    critical_set: CriticalSetDescription
    discriminant: DiscriminantGeometry
    sigma_cap_v: tuple[bool, dict]  # whether Sigma meets V only at 0, certificate
    special_family: SpecialFamilyForm | None
    radial_weights: RadialWeights | None
    radial_weights_error: str | None
    verdict: FibrationVerdict


def analyze(psi: DiagonalMixedPolynomial) -> StructureReport:
    """Derive every exact quantity of psi once, on one colinearity partition."""
    try:
        rw = radial_weights(psi)
        rw_err = None
    except ValueError as exc:
        rw = None
        rw_err = str(exc)
    part = colinearity_classes(psi)
    disc = _discriminant(psi, part)
    cap = _sigma_cap_v(psi, part)
    special = special_family_form(psi)
    return StructureReport(
        psi=psi,
        partition=part,
        critical_set=_critical_set(psi, part),
        discriminant=disc,
        sigma_cap_v=cap,
        special_family=special,
        radial_weights=rw,
        radial_weights_error=rw_err,
        verdict=_verdict(psi, part, disc, cap[0], special),
    )
