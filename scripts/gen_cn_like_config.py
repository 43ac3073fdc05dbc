#!/usr/bin/env python
"""Regenerate the bundled "cn-like" simulation config.

30 regions laid out on a 6x5 grid, each with a regional-center capital and
two satellite cities; 3 ISPs sharing 3 IXP cities; 450 landmarks (5 per ISP
per capital) and 90 probes (2 per capital with rotating ISPs, 1 per region in
a satellite city).

The config is written as JSON, one city, ISP or host per line and keys in a
fixed order, so a change to the topology reads as a line diff.  JSON holds no
comments: ``src/rtdcorr/configs/cn-like.json`` is this script's output, so
edit here, not there.

``render(towns=True)`` gives the "cn-towns" variant, which keeps landmark 0 of
each ISP in its capital and moves landmarks 1-4 into the region's two
satellite cities, two per satellite; it is not bundled.
"""

import json
import math
from pathlib import Path

OUT = Path(__file__).resolve().parents[1] / "src" / "rtdcorr" / "configs" / "cn-like.json"

ISPS = ["isp-a", "isp-b", "isp-c"]
IXP_REGIONS = [4, 13, 22]


def rounded(x: float, places: int) -> float:
    """x at ``places`` decimals: the float its fixed-point text reads as."""
    return float(f"{x:.{places}f}")


def config(towns: bool = False) -> dict:
    """The config document; with ``towns``, the cn-towns variant."""
    cities = []
    for i in range(30):
        row, col = divmod(i, 6)
        # slight deterministic warp so the grid is not perfectly regular
        lat = 22.0 + 5.5 * row + 0.7 * math.sin(2.1 * i)
        lon = 90.0 + 6.4 * col + 0.9 * math.cos(1.7 * i)
        region = f"r{i:02d}"
        cities.append({"id": f"c{i:02d}", "lat": rounded(lat, 4), "lon": rounded(lon, 4),
                       "region": region, "is_center": True})
        for j, (dlat, dlon) in enumerate([(2.6, -2.2), (-2.2, 2.8)]):
            cities.append({"id": f"c{i:02d}s{j}", "lat": rounded(lat + dlat, 4),
                           "lon": rounded(lon + dlon, 4), "region": region, "is_center": False})

    ixps = [f"c{r:02d}" for r in IXP_REGIONS]
    isps = [{"id": isp, "ixps": ixps} for isp in ISPS]

    hosts = []
    for i in range(30):
        capital = f"c{i:02d}"
        for k in range(2):  # capital probes, ISPs rotate by region
            hosts.append({"id": f"p-r{i:02d}-c{k}", "role": "probe", "city": capital,
                          "isp": ISPS[(i + k) % 3]})
        # one satellite probe per region on the remaining ISP
        hosts.append({"id": f"p-r{i:02d}-n0", "role": "probe", "city": f"{capital}s0",
                      "isp": ISPS[(i + 2) % 3]})
        for isp in ISPS:
            for k in range(5):
                city = f"{capital}s{(k - 1) // 2}" if towns and k else capital
                hosts.append({"id": f"l-r{i:02d}-{isp}-{k}", "role": "landmark", "city": city,
                              "isp": isp})

    return {
        "scatter_km": 8.0,
        "path_model": {
            "v_km_s": 200000.0,
            "intra_r": {"mu": rounded(math.log(0.5), 6), "sigma": 0.35},
            "inter_r": {"mu": rounded(math.log(2.0), 6), "sigma": 1.0},
            "jitter": 0.3,
            "samples_per_pair": 3,
        },
        "cities": cities,
        "isps": isps,
        "hosts": hosts,
    }


def render(towns: bool = False) -> str:
    """The text of the config file: ``config(towns)`` as JSON, each list
    item on a line of its own."""
    parts = []
    for key, value in config(towns).items():
        if isinstance(value, list):
            items = ",\n".join(f"    {json.dumps(item)}" for item in value)
            parts.append(f"  {json.dumps(key)}: [\n{items}\n  ]")
        else:
            parts.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(render())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
