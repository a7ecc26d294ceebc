"""Qubit-level walkthrough: weaving, failure paths, and a full program.

Everything here is an exact pure-state calculation: every measurement
outcome is enumerated, corrected, and compared with the intended state, so
fidelities of exactly 1 are the expected result, not an approximation.
"""

import numpy as np

from freearm import statevec as sv


def main():
    print(__doc__)

    print("1. Weaving two free arms")
    print("   A link carries (|0 path, 0 pol, + arm> + |1, 1, ->)/sqrt(2).")
    print("   Weave = conditional phase between the arms, then x-measure both;")
    print("   a minus outcome is repaired by a Z on the opposite link:")
    sa, sb = sv.bracket_state("p", 1), sv.bracket_state("q", 1)
    target = sv.woven_target("p", 2, "q", 2)
    woven = sv.weave(sa, sb, sv.arm("p", 2), sv.arm("q", 2))
    # one stacked record: row i of each array is branch i
    for outcome, p, f in zip(woven.outcome.tolist(), woven.probability,
                             woven.state.fidelity(target)):
        signs = "".join("+-"[o] for o in outcome)
        print(f"   outcomes {signs}  probability {p:.4f}  fidelity to target {f:.12f}")

    print("\n2. When a weave fails, the chain survives")
    print("   The failed arm is z-measured; both outcomes leave the link")
    print("   maximally entangled (Schmidt coefficients 1/sqrt(2) each):")
    cut = sv.disconnect_arm(sv.bracket_state("p", 1), sv.arm("p", 2))
    for outcome, coeffs in zip(cut.outcome.tolist(),
                               cut.state.schmidt_coefficients([sv.path("p", 1)])):
        print(f"   outcome {outcome}: schmidt {coeffs.round(6)}")

    data = (0.6, 0.8j)
    chain = sv.build_chain_state(1, data)
    want = sv.data_state("p", 2, *data)
    # both disconnect outcomes, then all four Bell outcomes of each: 8 branches
    teleported = sv.bell_teleport(sv.disconnect_arm(chain, sv.arm("p", 2)).state, "p", 1)
    worst = min(1.0, teleported.state.fidelity(want).min())
    print(f"   teleporting data through the surviving link: worst branch "
          f"fidelity {worst:.12f}")

    print("\n3. A complete two-qubit program, every branch verified")
    # a program is a gate layout: rotation places, not matrices
    prog = sv.Program(("a", "b"),
                      (sv.Rotation("a"), sv.Rotation("b"),
                       sv.Cphase("a", "b"), sv.Rotation("b")))
    rep = sv.evolve_program(prog, links_per_qubit=1)
    print("   layout: rotate a; rotate b; conditional phase; rotate b")
    print("   the verdict covers every choice of rotations and inputs, including")
    print("   H a; H b; conditional phase; H b on |00>, which makes a Bell pair")
    print(f"   measurement branches: {rep.branch_count}")
    print(f"   minimum gadget-branch fidelity: {rep.min_fidelity:.12f}")
    print(f"   branch probabilities sum to {rep.probability_sum:.12f}")

    rng = np.random.default_rng(7)
    prog = sv.random_program(3, 2, 4, rng)
    rep = sv.evolve_program(prog, links_per_qubit=2)
    print("\n   random 3-qubit layout, 2 conditional phases, 4 rotations:")
    print(f"   {rep.branch_count} branches, min fidelity {rep.min_fidelity:.12f}")


if __name__ == "__main__":
    main()
