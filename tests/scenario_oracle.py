"""The `configparser` reading of `scenario.cfg` that `files.key_values`
replaced, kept as the differential oracle: on a file that both accept,
`parse_scenario` must return an equal `Scenario`. It reads valid files only
and checks nothing.
"""
from __future__ import annotations

import configparser
import datetime as dt
import os

from nowcastsim.scenario import Scenario, WavePoint


def parse_scenario(path) -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)

    def flag(section, key):
        return section.get(key, "off").strip().lower() == "on"

    waves = [WavePoint(label=name.split(":", 1)[1],
                       date=dt.date.fromisoformat(section["date"].strip()),
                       pup_on=flag(section, "pup"),
                       ceib_on=flag(section, "ceib"),
                       subsidy=section.get("subsidy", "none").strip().lower(),
                       childcare_support=flag(section, "childcare_support"),
                       deferrals_on=flag(section, "deferrals"),
                       capital_on=flag(section, "capital_losses"),
                       home_working_on=flag(section, "home_working"))
             for name, section in parser.items() if name.startswith("wave:")]
    waves.sort(key=lambda w: w.date)
    main = parser["scenario"]
    return Scenario(
        waves=waves,
        controls_path=os.path.join(os.path.dirname(os.path.abspath(path)), main["controls"]),
        seed=int(main.get("seed", "0")),
        employer_topup=float(main.get("employer_topup", "0.30")),
        capital_booking=main.get("capital_booking", "amortized").strip(),
    )
