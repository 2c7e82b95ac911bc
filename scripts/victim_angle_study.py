#!/usr/bin/env python3
"""Where in the field of view does the tree search actually work?

Sweeps a flat-channel victim across the leaf centers of the default
tree and reports, per angle, the achieved suppression and whether the
greedy descent picked the same leaf an exhaustive check over all 81
leaves would have.  The summary at the bottom is the practical guidance:
victims inside |angle| <= 45 deg and away from the +-30 deg sector
boundaries and the serving beam are reliable; the edges of the view are
not, because half-wavelength-plus spacing aliases them onto in-view
partners.
"""

import argparse
from dataclasses import replace

from nullsim.beamforming import ArrayGeometry
from nullsim.campaign import _csv_text, _write_text
from nullsim.coexsim import run_full_protocol
from nullsim.scenario import Scenario


def in_safe_fov(angle: float, beam: float) -> bool:
    return (
        abs(angle) <= 45.0
        and min(abs(angle - 30.0), abs(angle + 30.0)) >= 2.3
        and abs(angle - beam) > 10.0
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-antennas", type=int, default=8, choices=(4, 8))
    ap.add_argument("--beam", type=float, default=21.4)
    ap.add_argument("--duty", type=float, default=0.2)
    ap.add_argument(
        "--all",
        action="store_true",
        help="sweep every leaf center instead of only the safe field of view",
    )
    ap.add_argument("--out", default=None, help="write the per-angle table as CSV")
    args = ap.parse_args()

    base = Scenario(
        ue_angle_deg=args.beam,
        geometry=ArrayGeometry(k_antennas=args.k_antennas),
        duty=replace(Scenario().duty, duty=args.duty),
        search=replace(Scenario().search, power_correction=False),
    )
    tree = base.search_tree()
    # the exhaustive check is the protocol's linear scan over the leaf nulls,
    # noiseless: its trace holds every leaf's INR, in leaf order
    leaf_scan = replace(
        base.search,
        mode="linear",
        linear_grid=tuple(tree.nodes[n].null_angles_deg[0] for n in tree.leaf_ids),
    )

    def exhaustive_argmin(scn: Scenario) -> tuple:
        trace = run_full_protocol(replace(scn, search=leaf_scan)).users[0].trace
        best = min(range(len(trace)), key=lambda i: (trace[i][1], i))
        return tree.leaf_ids[best]

    centers = [sum(tree.nodes[n].sector) / 2 for n in tree.leaf_ids]
    angles = [
        c for c in centers
        if (args.all or in_safe_fov(c, args.beam)) and c != args.beam
    ]

    rows = []
    for angle in angles:
        scn = replace(base, user_angles_deg=(angle,))
        result = run_full_protocol(scn)
        user = result.users[0]
        leaf_rows = [(c, r) for c, r in user.trace if c.level == tree.depth]
        chosen = min(range(len(leaf_rows)), key=lambda i: (leaf_rows[i][1], i))
        agrees = leaf_rows[chosen][0].node_id == exhaustive_argmin(scn)
        rows.append(
            {
                "victim_deg": round(angle, 4),
                "in_safe_fov": in_safe_fov(angle, args.beam),
                "delta_inr_db": round(user.delta_inr_db, 2),
                "nulls_used": user.nulls_used,
                "greedy_matches_exhaustive": agrees,
            }
        )
        marker = "" if agrees else "  <- wrong subtree"
        print(
            f"victim {angle:+8.3f} deg  dINR {user.delta_inr_db:6.2f} dB  "
            f"nulls {user.nulls_used}{marker}"
        )

    reached = [r for r in rows if r["delta_inr_db"] >= 25.0]
    agreed = [r for r in rows if r["greedy_matches_exhaustive"]]
    print(
        f"\n{len(angles)} victims, K={args.k_antennas}, beam {args.beam} deg: "
        f"{len(reached)} reach 25 dB suppression, "
        f"{len(agreed)} match the exhaustive leaf choice"
    )

    if args.out:
        # written in place, like every result export
        _write_text(args.out, _csv_text(list(rows[0]), rows), "")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
