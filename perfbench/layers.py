"""Per-layer metrics of a traced run, derived from its spans and
counts. A layer the workload does not exercise reads 0 (see
README.md, "Per-layer metrics").
"""

# (name, unit, better). Exact counts read from the RunReport have no
# better direction in a speed-only change; they are listed with the
# direction a behaviour change would want.
PER_LAYER = (
    ("phy.tx_us_per_frame", "us", "lower"),
    ("phy.rx_us_per_frame", "us", "lower"),
    ("phy.fullphy_frames", "count", "higher"),
    ("channel.apply_us_per_frame", "us", "lower"),
    ("decode.us_per_frame", "us", "lower"),
    ("softphy.pber_us_per_frame", "us", "lower"),
    ("softphy.calib_load_s", "s", "lower"),
    ("sim.link_self_s", "s", "lower"),
    ("sim.topology_s", "s", "lower"),
    ("sim.ctor_s", "s", "lower"),
    ("sim.run_cold_s", "s", "lower"),
    ("sim.run_warm_s", "s", "lower"),
    ("sim.memo_speedup", "ratio", "lower"),
    ("sim.par_eff", "ratio", "higher"),
    ("sim.us_per_slot", "us", "lower"),
    ("sim.mobility.epochs", "count", "higher"),
    ("sim.mobility.epoch_us", "us", "lower"),
    ("sim.mobility.events", "count", "higher"),
    ("common.sinr_accum_ns_per_lane", "ns", "lower"),
    ("common.per_draw_ns_per_lane", "ns", "lower"),
    ("common.rng_u01_ns_per_lane", "ns", "lower"),
    ("common.pf_decay_ns_per_user", "ns", "lower"),
    ("mac.user_slots", "count", "higher"),
    ("mac.frames_sent", "count", "higher"),
    ("mac.delivered", "count", "higher"),
    ("mac.retransmissions", "count", "lower"),
    ("mac.stalled_user_slots", "count", "lower"),
    ("mac.queue_drops", "count", "lower"),
    ("mac.delivered_per_frame", "ratio", "higher"),
    ("mac.trace_events", "count", "higher"),
    ("mac.trace_bytes", "bytes", "lower"),
    ("mac.trace_record_s", "s", "lower"),
    ("mac.trace_save_s", "s", "lower"),
    ("campaign.shard_wall_s_max", "s", "lower"),
    ("campaign.shard_imbalance", "ratio", "lower"),
    ("campaign.merge_s", "s", "lower"),
    ("campaign.overhead_s", "s", "lower"),
    ("campaign.shard_eff", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def totals(spans):
    """{name: (total seconds, count)} over a span list."""
    out = {}
    for s in spans:
        t, n = out.get(s["name"], (0.0, 0))
        out[s["name"]] = (t + (s["end_ns"] - s["start_ns"]) / 1e9, n + 1)
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def derive(counts, spans, report, campaign, untraced_wall):
    """All PER_LAYER metrics as {name: value}.

    counts: the probe's counts; spans: the probe's spans; report: the
    workload's RunReport (a checked untraced batch); campaign: the
    traced campaign batch ({"shard_walls", "wall", "merge_s"}) or
    None; untraced_wall: median untraced batch wall of this run.
    """
    tot = totals(spans)

    def sec(name):
        return tot.get(name, (0.0, 0))[0]

    def calls(name):
        return tot.get(name, (0.0, 0))[1]

    m = {}
    frames = counts.get("replay_frames", 0)
    m["phy.tx_us_per_frame"] = _ratio(sec("phy.tx"), frames) * 1e6
    m["phy.rx_us_per_frame"] = _ratio(sec("phy.rx"), frames) * 1e6
    m["channel.apply_us_per_frame"] = (
        _ratio(sec("channel.apply"), frames) * 1e6)
    m["softphy.pber_us_per_frame"] = (
        _ratio(sec("softphy.pber"), frames) * 1e6)
    weighted = 0.0
    for r in range(8):
        n_r = counts.get(f"decode_frames.rate{r}", 0)
        name = f"decode.rate{r}"
        if n_r and calls(name):
            weighted += n_r * sec(name) / calls(name)
    m["decode.us_per_frame"] = _ratio(weighted, frames) * 1e6
    m["softphy.calib_load_s"] = sec("softphy.calib_load")

    link = sum(sec(n) for n in ("phy.tx", "channel.apply", "phy.rx",
                                "softphy.pber"))
    m["sim.link_self_s"] = sec("sim.run_par1") - link
    m["sim.topology_s"] = sec("sim.topology")
    m["sim.ctor_s"] = sec("sim.ctor")
    m["sim.run_cold_s"] = sec("sim.run_cold")
    m["sim.run_warm_s"] = sec("sim.run_warm")
    m["sim.memo_speedup"] = _ratio(sec("sim.run_cold"), sec("sim.run_warm"))
    m["sim.par_eff"] = _ratio(
        sec("sim.run_par1"),
        counts.get("par_threads", 1) * sec("sim.run_parN"))
    m["sim.us_per_slot"] = _ratio(sec("sim.run_cold"),
                                  counts.get("slots", 0)) * 1e6

    epochs = counts.get("mobility_epochs", 0)
    m["sim.mobility.epochs"] = epochs
    m["sim.mobility.epoch_us"] = (
        _ratio(sec("sim.mobility.epoch"), epochs) * 1e6)
    m["sim.mobility.events"] = counts.get("mobility_events", 0)

    lanes = counts.get("kernel_batch_lanes", 0)
    m["common.sinr_accum_ns_per_lane"] = (
        _ratio(sec("common.sinr_accum"), lanes) * 1e9)
    m["common.per_draw_ns_per_lane"] = (
        _ratio(sec("common.per_draw"), lanes) * 1e9)
    m["common.rng_u01_ns_per_lane"] = _ratio(
        sec("common.rng_u01"), counts.get("kernel_rng_lanes", 0)) * 1e9
    m["common.pf_decay_ns_per_user"] = _ratio(
        sec("common.pf_decay"), counts.get("kernel_pf_lanes", 0)) * 1e9

    agg = _aggregate(report)
    m["phy.fullphy_frames"] = agg["full_phy_frames"]
    m["mac.user_slots"] = (sum(u["users"] for u in report["units"])
                           * report["slots"])
    m["mac.frames_sent"] = agg["frames_sent"]
    m["mac.delivered"] = agg["delivered"]
    m["mac.retransmissions"] = agg["retransmissions"]
    m["mac.stalled_user_slots"] = agg["stalled_slots"]
    m["mac.queue_drops"] = agg["queue_drops"]
    m["mac.delivered_per_frame"] = _ratio(agg["delivered"],
                                          agg["frames_sent"])

    m["mac.trace_events"] = counts.get("trace_events", 0)
    m["mac.trace_bytes"] = counts.get("trace_bytes", 0)
    m["mac.trace_record_s"] = sec("mac.run_traced") - sec("mac.run_untraced")
    m["mac.trace_save_s"] = sec("mac.trace_save")

    if campaign:
        walls = campaign["shard_walls"]
        mean = sum(walls) / len(walls)
        m["campaign.shard_wall_s_max"] = max(walls)
        m["campaign.shard_imbalance"] = max(walls) / mean
        m["campaign.merge_s"] = campaign["merge_s"]
        m["campaign.overhead_s"] = campaign["wall"] - max(walls)
        m["campaign.shard_eff"] = sum(walls) / (len(walls) * campaign["wall"])
        traced_wall = campaign["wall"]
    else:
        for name in ("campaign.shard_wall_s_max", "campaign.shard_imbalance",
                     "campaign.merge_s", "campaign.overhead_s",
                     "campaign.shard_eff"):
            m[name] = 0.0
        traced_wall = sec("workload")
    m["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    m["trace.spans"] = counts.get("spans", 0)
    return {name: m[name] for name, _, _ in PER_LAYER}


def _aggregate(report):
    """The report's aggregate stats; a one-unit report has no merged
    aggregate, and its unit's stats are the run's aggregate."""
    if report.get("aggregate"):
        return report["aggregate"]["stats"]
    units = report["units"]
    keys = ("full_phy_frames", "frames_sent", "delivered",
            "retransmissions", "stalled_slots", "queue_drops")
    return {k: sum(u["stats"][k] for u in units) for k in keys}
