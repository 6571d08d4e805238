"""Relay-selection rules.

Two schemes read the same input, the list of relay batteries indexed by
relay id, plus the ids that are busy transmitting this slot:

* single selection (no destination-link CSI): pick the richest relay that
  can afford one fixed-power transmission, before the broadcast arrives;
* two-step multi selection (destination-link CSI at transmit time): first
  designate the M richest relays as listeners, then, one slot later, pick
  the decoder that keeps the largest battery margin after paying its
  channel-inversion transmit energy, which the engine derives per relay.

All functions are pure; every tie breaks toward the lowest relay id so runs
are reproducible.
"""

from __future__ import annotations

from typing import Collection, Sequence


def srs_select(
    battery: Sequence[float], fixed_cost: float, busy: Collection[int] = ()
) -> int | None:
    """Relay with the most stored energy among those able to pay fixed_cost.

    Relays in busy are skipped. Returns None when no other relay can afford
    the transmission (all relays then stay free to harvest).
    """
    best = None
    for rid, stored in enumerate(battery):
        if rid in busy or stored < fixed_cost:
            continue
        if best is None or stored > battery[best]:
            best = rid
    return best


def mrs_preselect(
    battery: Sequence[float], m: int, busy: Collection[int] = ()
) -> list[int]:
    """Sorted ids of the m relays not in busy with the largest stored energy.

    Ties at the boundary go to lower ids. When fewer than m relays are
    free (one may be transmitting), all free relays are taken.
    """
    # a stable sort keeps equal batteries in ascending id order
    ranked = sorted(range(len(battery)), key=battery.__getitem__, reverse=True)
    if busy:
        ranked = [rid for rid in ranked if rid not in busy]
    return sorted(ranked[:m])


def mrs_final_select(
    decoded_ids: Sequence[int], battery: Sequence[float], energy: Sequence[float]
) -> int | None:
    """Pick the forwarding relay among the decoders, given destination CSI.

    energy is indexed by relay id: each relay's channel-inversion transmit
    energy for its own destination gain, inf where a zero gain makes it
    infeasible. The pick maximizes battery minus energy over the decoders
    that can afford it. Returns the relay id, or None when no decoder
    exists or none can pay.
    """
    best = None
    best_margin = None
    for rid in sorted(decoded_ids):
        stored, cost = battery[rid], energy[rid]
        if stored < cost:
            continue
        margin = stored - cost
        if best_margin is None or margin > best_margin:
            best, best_margin = rid, margin
    return best
