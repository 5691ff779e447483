"""Seeded smart-card trips for the ``analyze`` workload.

Five stations over three weeks of hourly epochs, about 50k trips. Start
rates follow a weekday/weekend commuter shape with AR(1) noise in the log
rate. Most trips from the leader station ride exactly 60 minutes to the
follower station, so the follower's tap-outs trail the leader's tap-ins by
one epoch: that is the lead/lag structure the enhanced forecast borrows.

Two incidents, weekend crowd events, are planted inside the anomaly scan
window (days 12 to 20): a surge of leader-to-follower trips, which shows at the leader's tap-in and
one epoch later at the follower's tap-out, and a larger surge at a third
station. The generator also returns the exact tap-in and tap-out counts it
wrote, so the benchmark can check ingest against them.

The everyday traffic is the same for every seed; the seed places and sizes
the incidents and draws the surge trips. AIC order selection over 120 points
flips between ARMA orders on the slightest change to its window, and the
cost of the rolling scan flips with it: a fully seeded city took from 9 s
to 21 s per pass across five seeds, and so did weekday incidents, which
shift the weekly profile inside the Monday-to-Friday selection window. With
weekend incidents every seed selects the same orders, and the benchmark
measures the code rather than the draw.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

START = datetime(2016, 2, 1)  # a Monday, so epoch 0 opens a week
N_STATIONS = 5
DAYS = 21
HOURS = 24 * DAYS
LEADER, FOLLOWER = 0, 1
MEAN_STARTS = 20.0            # trips per station-hour, averaged over the week
LEADER_TO_FOLLOWER = 0.6      # share of the leader's trips that take the 60-minute ride
EVENT_DAYS = (12, 13, 19)     # the weekend days of the pipeline's scan window
CITY_SEED = 20160201          # the everyday traffic; see the module docstring


@dataclass(frozen=True)
class Incident:
    """A planted surge; it counts as found if any (roi, epoch) in ``spikes`` is ranked."""

    station: int
    epoch: int
    extra_trips: int
    spikes: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class City:
    trips_path: Path
    n_trips: int
    tap_in: np.ndarray   # (N_STATIONS, HOURS) trips started per station and epoch
    tap_out: np.ndarray  # (N_STATIONS, HOURS) trips ended per station and epoch
    incidents: tuple[Incident, ...]


def _day_shape(hours: np.ndarray) -> np.ndarray:
    bump = lambda centre, width: np.exp(-0.5 * ((hours - centre) / width) ** 2)
    return np.maximum(0.45 + 1.3 * bump(8.0, 1.6) + 1.1 * bump(18.0, 2.0) - 0.35 * bump(3.0, 2.5), 0.05)


def _start_rates(rng: np.random.Generator) -> np.ndarray:
    hours = np.arange(HOURS)
    shape = _day_shape(hours % 24)
    weekend = (hours // 24) % 7 >= 5
    shape[weekend] *= 0.55
    shape *= MEAN_STARTS / shape.mean()
    rates = np.empty((N_STATIONS, HOURS))
    for s in range(N_STATIONS):
        noise = np.empty(HOURS)
        prev = 0.0
        for t, eps in enumerate(rng.normal(0.0, 0.12, size=HOURS)):
            prev = 0.6 * prev + eps
            noise[t] = prev
        rates[s] = rng.uniform(0.8, 1.2) * shape * np.exp(noise)
    return rates


def _plant_incidents(rng: np.random.Generator, rates: np.ndarray) -> tuple[Incident, ...]:
    days = rng.choice(EVENT_DAYS, size=2, replace=False)
    hours = rng.integers(9, 17, size=2)
    other = int(rng.integers(2, N_STATIONS))
    lead_epoch = int(24 * days[0] + hours[0])
    big_epoch = int(24 * days[1] + hours[1])
    lead_extra = int(round(2.0 * rates[LEADER, lead_epoch])) + 30
    big_extra = int(round(3.0 * rates[other, big_epoch])) + 45
    return (
        Incident(LEADER, lead_epoch, lead_extra,
                 ((LEADER, lead_epoch), (N_STATIONS + FOLLOWER, lead_epoch + 1))),
        Incident(other, big_epoch, big_extra, ((other, big_epoch),)),
    )


def _trip_draws(rng: np.random.Generator, station: int, n: int):
    """Start minute, short-trip duration, destination and 60-minute-ride flag of n trips."""
    return (
        rng.integers(0, 60, size=n),
        rng.integers(5, 46, size=n),
        (station + rng.integers(1, N_STATIONS, size=n)) % N_STATIONS,
        rng.random(size=n) < LEADER_TO_FOLLOWER,
    )


def build_city(seed: int, out_dir: Path) -> City:
    """Write ``trips.csv`` under ``out_dir`` and return what it holds."""
    base = np.random.default_rng(CITY_SEED)
    rates = _start_rates(base)
    counts = base.poisson(rates)
    rng = np.random.default_rng(seed)
    incidents = _plant_incidents(rng, rates)
    surge = {(inc.station, inc.epoch): inc.extra_trips for inc in incidents}

    tap_in = np.zeros((N_STATIONS, HOURS), dtype=np.int64)
    tap_out = np.zeros((N_STATIONS, HOURS), dtype=np.int64)
    last_minute = HOURS * 60 - 1
    path = out_dir / "trips.csv"
    n_trips = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["card_id", "start_time", "start_station", "end_time", "end_station"])
        for hour in range(HOURS):
            for station in range(N_STATIONS):
                n = int(counts[station, hour])
                extra = surge.get((station, hour), 0)
                minutes, short, dests, rides = (
                    np.concatenate(pair) for pair in zip(_trip_draws(base, station, n),
                                                         _trip_draws(rng, station, extra)))
                for i in range(n + extra):
                    start = hour * 60 + int(minutes[i])
                    if station == LEADER and (i >= n or rides[i]):
                        dest, end = FOLLOWER, start + 60
                    else:
                        dest, end = int(dests[i]), start + int(short[i])
                    end = min(end, last_minute)
                    writer.writerow([
                        f"c{seed}-{n_trips}",
                        (START + timedelta(minutes=start)).isoformat(),
                        station,
                        (START + timedelta(minutes=end)).isoformat(),
                        dest,
                    ])
                    tap_in[station, start // 60] += 1
                    tap_out[dest, end // 60] += 1
                    n_trips += 1
    return City(path, n_trips, tap_in, tap_out, incidents)


def incidents_found(incidents: tuple[Incident, ...], ranked) -> int:
    """How many planted incidents have a spike among the ranked anomaly events."""
    hits = {(event.roi_id, event.epoch_index) for event in ranked}
    return sum(any(spike in hits for spike in inc.spikes) for inc in incidents)

