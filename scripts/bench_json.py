"""Read memnet bench --json output (ci/bench_schema.json, version 5).

Each run is {"key", "config", "result", "host"}: the run-journal record
(ci/journal_schema.json) with plain JSON numbers, plus the host-side
data no journal keeps. bench_compare.py, energy_report.py and
latency_report.py read it through these helpers. Standard library only.
"""

SCHEMA_VERSION = 5

# Per-cause members of a run's result.energy object, without the "_j".
_STORED_CAUSES = ("tx", "retrain", "sleep", "wake", "serdes_leak",
                  "router", "dram_leak", "dram_dyn", "idle_io",
                  "active_io")


def version_error(doc, tool):
    """One-line diagnostic when `doc` is not a version 5 dump, else None."""
    version = doc.get("schema_version")
    if version == SCHEMA_VERSION:
        return None
    return ("%s: bench JSON schema_version %s is not %d; versions before 5 "
            "nest results under power/perf and are not read — re-run the "
            "bench with a current build" % (tool, version, SCHEMA_VERSION))


def attribution(energy):
    """Joules by cause of a run's result.energy object: the stored causes
    plus idle_floor (the idle modes summed) and total. Both sums run in
    EnergyAttribution::idleFloorJ() / totalJ() order, so they equal the
    simulator's values bit for bit."""
    j = {cause: energy[cause + "_j"] for cause in _STORED_CAUSES}
    floor = 0.0
    for mode_j in energy["idle_mode_j"]:
        floor += mode_j
    j["idle_floor"] = floor
    link_io = j["tx"] + j["retrain"] + ((floor + j["sleep"]) + j["wake"])
    module = j["serdes_leak"] + j["router"] + j["dram_leak"] + j["dram_dyn"]
    j["total"] = link_io + module
    return j
