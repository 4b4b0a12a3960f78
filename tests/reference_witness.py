"""The witness-family builders as they were before the engine read every
family as one contact difference, kept as a test oracle.

Each builder derives its leading vector its own way: the characteristic
family scales phi's coefficient at m_theta by 1 - theta^m_theta, the
contact family reads reference_aux.contact_leading, and the non-tangent
family spans the two tangents. m_theta, theta and the plane come from
reference_aux.characteristic_reference and contact_reference, read off the
expanded difference series, so the oracle shares no engine record code.
Each builder runs one family through the engine's measurement
(oracle._run_family), at any k, lam and window; the tests use them to
check that measurement, and assert that the engine's cone_witness_results
returns equal WitnessResults and raises the same errors.
"""

import math
from typing import Optional

from c5cone.c5 import C5Cone, c5_cone
from c5cone.errors import FloatingPointUnderflow
from c5cone.geometry import Branch, Curve, Plane
from c5cone.oracle import (
    WitnessResult,
    _complex_terms,
    _orthonormalize,
    _run_family as _run_floats,
    component_basis,
)
from c5cone.scalar import CycloScalar, common_conductor, root_of_unity, to_complex
from reference_aux import (
    Reference,
    characteristic_reference,
    contact_leading,
    contact_reference,
    substitute_power,
)


def _as_scalar(lam) -> CycloScalar:
    return lam if isinstance(lam, CycloScalar) else CycloScalar.rational(lam)


def _run_family(kind, labels, k, psi1, psi2, group_order, theta, k_theta, lam,
                target, plane, u_values) -> WitnessResult:
    """The engine's measurement of one family, with every double converted
    here from the exact sides, theta, lam, target and plane. A target whose
    every double is zero has no direction: FloatingPointUnderflow."""

    def floats():
        theta_c, lam_c = to_complex(theta), to_complex(lam)
        c1, c2 = _complex_terms(psi1), _complex_terms(psi2)
        target_c = [to_complex(t) for t in target]
        if all(z == 0 for z in target_c):
            raise FloatingPointUnderflow(
                f"the witness target of {', '.join(labels)} underflows IEEE doubles",
                labels=list(labels),
            )
        return c1, c2, theta_c, lam_c, _orthonormalize([target_c]), component_basis(plane)

    return _run_floats(kind, labels, k, group_order, k_theta, u_values, floats)


def witness_secant_family(b: Branch, k: int, lam=1, u_values=None,
                          record: Optional[Reference] = None) -> WitnessResult:
    """Characteristic witness on one branch: secants between phi(u) and
    phi(theta*u - (lam*theta/m)*u^(k_theta-m+1)), theta = zeta_m^k. record
    (default: characteristic_reference) gives m_theta, theta and the plane."""
    lam = _as_scalar(lam)
    if record is None:
        record = characteristic_reference(b, k)
    e = record.m_theta
    # the u^e coefficient of phi(u) - phi(theta*u)
    scale = 1 - root_of_unity(b.conductor, b.m, k * e)
    v_raw = [s.coefficient(e) * scale for s in b.param.coords]
    w_raw = [s.coefficient(b.m) for s in b.param.coords]
    target = [v + lam * w for v, w in zip(v_raw, w_raw)]
    return _run_family(
        "characteristic", (b.label,), k, b.param, b.param, b.m, record.theta,
        e, lam, target, record.plane, u_values,
    )


def contact_witness_family(bi: Branch, bj: Branch, k: int, lam=1,
                           u_values=None,
                           record: Optional[Reference] = None) -> WitnessResult:
    """Contact witness on a tangent pair, working on the reparametrized
    branches psi_i(u) = phi_i(u^(lcm/m_i)). record (default:
    contact_reference) gives m_theta, theta and the plane."""
    lam = _as_scalar(lam)
    lcm = math.lcm(bi.m, bj.m)
    if record is None:
        record = contact_reference(bi, bj, k)
    psi1 = substitute_power(bi.param, lcm // bi.m)
    psi2 = substitute_power(bj.param, lcm // bj.m)
    _, v_raw = contact_leading(bi, bj, k)
    w_raw = [s.coefficient(lcm) for s in psi1.coords]
    target = [v + lam * w for v, w in zip(v_raw, w_raw)]
    return _run_family(
        "contact", (bi.label, bj.label), k, psi1, psi2, lcm, record.theta,
        record.m_theta, lam, target, record.plane, u_values,
    )


def diagonal_witness_family(bi: Branch, bj: Branch, u_values=None) -> WitnessResult:
    """Non-tangent pair witness: secants between psi_i(u) and psi_j(u)
    converge to the difference of the two tangent coefficient vectors,
    which lies in the span of the tangents."""
    lcm = math.lcm(bi.m, bj.m)
    conductor = common_conductor(bi.conductor, bj.conductor)
    one = root_of_unity(conductor, 1, 0)
    m_theta, target = contact_leading(bi, bj, 0)
    plane = Plane((bi.tangent.vec, bj.tangent.vec))
    psi1 = substitute_power(bi.param, lcm // bi.m)
    psi2 = substitute_power(bj.param, lcm // bj.m)
    return _run_family(
        "non-tangent", (bi.label, bj.label), 0, psi1, psi2, lcm, one,
        m_theta, CycloScalar.rational(0), target, plane, u_values,
    )


def cone_witness_results(c: Curve, cone: Optional[C5Cone] = None, lam=1) -> list:
    """One witness family per cone component (cone defaults to c5_cone(c)),
    built from the component's first provenance descriptor, with the
    records of reference_aux."""
    if cone is None:
        cone = c5_cone(c)
    if cone.dimension != 2:
        return []
    index = {b.label: i for i, b in enumerate(c.branches)}
    results = []
    for descriptors in cone.provenance:
        kind, labels, k = descriptors[0]
        bi = c.branches[index[labels[0]]]
        if kind == "characteristic":
            results.append(witness_secant_family(bi, k, lam))
            continue
        bj = c.branches[index[labels[1]]]
        if kind == "contact":
            results.append(contact_witness_family(bi, bj, k, lam=lam))
        else:
            results.append(diagonal_witness_family(bi, bj))
    return results
