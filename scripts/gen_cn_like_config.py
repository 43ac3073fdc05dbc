#!/usr/bin/env python
"""Regenerate the bundled "cn-like" simulation config.

30 regions laid out on a 6x5 grid, each with a regional-center capital and
two satellite cities; 3 ISPs sharing 3 IXP cities; 450 landmarks (5 per ISP
per capital) and 90 probes (2 per capital with rotating ISPs, 1 per region in
a satellite city).

``render(towns=True)`` gives the "cn-towns" variant, which keeps landmark 0 of
each ISP in its capital and moves landmarks 1-4 into the region's two
satellite cities, two per satellite; it is not bundled.
"""

import math
from pathlib import Path

OUT = Path(__file__).resolve().parents[1] / "src" / "rtdcorr" / "configs" / "cn-like.yaml"

ISPS = ["isp-a", "isp-b", "isp-c"]
IXP_REGIONS = [4, 13, 22]


def render(towns: bool = False) -> str:
    """The text of the config file; with ``towns``, the cn-towns variant."""
    lines = []
    lines.append("# Synthetic hierarchical 30-region / 3-ISP topology.")
    lines.append("# Generated by scripts/gen_cn_like_config.py; edit there, not here.")
    lines.append("scatter_km: 8.0")
    lines.append("path_model:")
    lines.append("  v_km_s: 200000.0")
    lines.append(f"  intra_r: {{mu: {math.log(0.5):.6f}, sigma: 0.35}}")
    lines.append(f"  inter_r: {{mu: {math.log(2.0):.6f}, sigma: 1.0}}")
    lines.append("  jitter: 0.3")
    lines.append("  samples_per_pair: 3")

    lines.append("cities:")
    for i in range(30):
        row, col = divmod(i, 6)
        # slight deterministic warp so the grid is not perfectly regular
        lat = 22.0 + 5.5 * row + 0.7 * math.sin(2.1 * i)
        lon = 90.0 + 6.4 * col + 0.9 * math.cos(1.7 * i)
        region = f"r{i:02d}"
        lines.append(
            f"  - {{id: c{i:02d}, lat: {lat:.4f}, lon: {lon:.4f}, region: {region}, is_center: true}}"
        )
        for j, (dlat, dlon) in enumerate([(2.6, -2.2), (-2.2, 2.8)]):
            lines.append(
                f"  - {{id: c{i:02d}s{j}, lat: {lat + dlat:.4f}, lon: {lon + dlon:.4f}, "
                f"region: {region}, is_center: false}}"
            )

    ixps = ", ".join(f"c{r:02d}" for r in IXP_REGIONS)
    lines.append("isps:")
    for isp in ISPS:
        lines.append(f"  - {{id: {isp}, ixps: [{ixps}]}}")

    lines.append("hosts:")
    for i in range(30):
        capital = f"c{i:02d}"
        for k in range(2):  # capital probes, ISPs rotate by region
            isp = ISPS[(i + k) % 3]
            lines.append(
                f"  - {{id: p-r{i:02d}-c{k}, role: probe, city: {capital}, isp: {isp}}}"
            )
        # one satellite probe per region on the remaining ISP
        lines.append(
            f"  - {{id: p-r{i:02d}-n0, role: probe, city: {capital}s0, isp: {ISPS[(i + 2) % 3]}}}"
        )
        for isp in ISPS:
            for k in range(5):
                city = f"{capital}s{(k - 1) // 2}" if towns and k else capital
                lines.append(
                    f"  - {{id: l-r{i:02d}-{isp}-{k}, role: landmark, city: {city}, isp: {isp}}}"
                )

    return "\n".join(lines) + "\n"


def main() -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(render())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
