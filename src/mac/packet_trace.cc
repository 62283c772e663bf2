#include "mac/packet_trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "common/logging.hh"

namespace wilis {
namespace mac {

namespace {

/** The version header pinning the committed fixtures' format. */
const char *const kHeader = "# wilis packet trace v1";
const char *const kColumns = "# slot cell user class seq event "
                             "arg0 arg1";

/** One entry as its text line (no trailing newline). */
std::string
entryLine(const PacketTrace::Entry &e)
{
    return strprintf("%" PRIu64 " %d %d %s %" PRIu64 " %s %" PRId64
                     " %" PRId64,
                     e.slot, e.cell, e.user,
                     trafficClassName(e.cls), e.seq,
                     packetEventName(e.event), e.arg0, e.arg1);
}

/** The canonical total order (see the file comment). */
bool
entryLess(const PacketTrace::Entry &a, const PacketTrace::Entry &b)
{
    return std::tie(a.cell, a.user, a.seq, a.slot, a.event, a.arg0,
                    a.arg1) < std::tie(b.cell, b.user, b.seq, b.slot,
                                       b.event, b.arg0, b.arg1);
}

} // namespace

const char *
packetEventName(PacketEvent ev)
{
    switch (ev) {
      case PacketEvent::Enqueue:
        return "enq";
      case PacketEvent::QueueDrop:
        return "qdrop";
      case PacketEvent::Grant:
        return "grant";
      case PacketEvent::Tx:
        return "tx";
      case PacketEvent::Ack:
        return "ack";
      case PacketEvent::Expire:
        return "expire";
      case PacketEvent::Handover:
        return "ho";
      case PacketEvent::Join:
        return "join";
      case PacketEvent::Leave:
        return "leave";
    }
    return "?";
}

PacketEvent
packetEventFromName(const std::string &name)
{
    if (name == "enq")
        return PacketEvent::Enqueue;
    if (name == "qdrop")
        return PacketEvent::QueueDrop;
    if (name == "grant")
        return PacketEvent::Grant;
    if (name == "tx")
        return PacketEvent::Tx;
    if (name == "ack")
        return PacketEvent::Ack;
    if (name == "expire")
        return PacketEvent::Expire;
    if (name == "ho")
        return PacketEvent::Handover;
    if (name == "join")
        return PacketEvent::Join;
    if (name == "leave")
        return PacketEvent::Leave;
    wilis_fatal("unknown packet event '%s' "
                "(enq|qdrop|grant|tx|ack|expire|ho|join|leave)",
                name.c_str());
}

PacketTrace::PacketTrace(int shards)
{
    wilis_assert(shards >= 1, "packet trace needs >= 1 shard");
    shards_.resize(static_cast<size_t>(shards));
}

void
PacketTrace::record(int shard, const Entry &e)
{
    // Shard ownership (one recording worker per shard, finalize only
    // after the team joins) is barrier-phase discipline: no lock to
    // annotate, so it is checked dynamically -- these panics catch
    // lifecycle misuse, the CI TSan leg catches two workers sharing
    // a shard index.
    wilis_assert(!finalized_,
                 "record() into a finalized packet trace");
    wilis_assert(shard >= 0 &&
                     shard < static_cast<int>(shards_.size()),
                 "trace shard %d out of %zu", shard,
                 shards_.size());
    shards_[static_cast<size_t>(shard)].push_back(e);
}

void
PacketTrace::finalize()
{
    if (finalized_)
        return;
    size_t total = 0;
    for (const auto &s : shards_)
        total += s.size();
    entries_.reserve(total);
    for (auto &s : shards_) {
        entries_.insert(entries_.end(), s.begin(), s.end());
        s.clear();
        s.shrink_to_fit();
    }
    // The sort key is total over one run's events (a packet sees at
    // most one event of each kind per slot), so the result is
    // independent of the per-shard generation order -- the property
    // every thread-count equivalence test rides on.
    std::sort(entries_.begin(), entries_.end(), entryLess);
    finalized_ = true;
}

const std::vector<PacketTrace::Entry> &
PacketTrace::entries() const
{
    wilis_assert(finalized_,
                 "entries() before finalize() on a packet trace");
    return entries_;
}

std::string
PacketTrace::toText() const
{
    wilis_assert(finalized_,
                 "toText() before finalize() on a packet trace");
    std::string out;
    out.reserve(entries_.size() * 32 + 64);
    out += kHeader;
    out += '\n';
    out += kColumns;
    out += '\n';
    for (const Entry &e : entries_) {
        out += entryLine(e);
        out += '\n';
    }
    return out;
}

void
PacketTrace::save(const std::string &path) const
{
    const std::string text = toText();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        wilis_fatal("cannot write packet trace '%s'", path.c_str());
    const size_t n = std::fwrite(text.data(), 1, text.size(), f);
    const bool ok = n == text.size() && std::fclose(f) == 0;
    wilis_assert(ok, "short write saving packet trace '%s'",
                 path.c_str());
}

PacketTrace
PacketTrace::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        wilis_fatal("cannot read packet trace '%s'", path.c_str());
    PacketTrace trace(1);
    char line[256];
    bool saw_header = false;
    int lineno = 0;
    while (std::fgets(line, sizeof line, f)) {
        ++lineno;
        std::string s(line);
        while (!s.empty() &&
               (s.back() == '\n' || s.back() == '\r'))
            s.pop_back();
        if (!saw_header) {
            if (s != kHeader) {
                std::fclose(f);
                wilis_fatal("packet trace '%s' has version header "
                            "'%s', expected '%s'",
                            path.c_str(), s.c_str(), kHeader);
            }
            saw_header = true;
            continue;
        }
        if (s.empty() || s[0] == '#')
            continue;
        Entry e;
        char cls[32];
        char ev[32];
        if (std::sscanf(s.c_str(),
                        "%" SCNu64 " %d %d %31s %" SCNu64
                        " %31s %" SCNd64 " %" SCNd64,
                        &e.slot, &e.cell, &e.user, cls, &e.seq, ev,
                        &e.arg0, &e.arg1) != 8) {
            std::fclose(f);
            wilis_fatal("malformed packet-trace line %d in '%s': "
                        "'%s'",
                        lineno, path.c_str(), s.c_str());
        }
        e.cls = trafficClassFromName(cls);
        e.event = packetEventFromName(ev);
        trace.record(0, e);
    }
    std::fclose(f);
    if (!saw_header)
        wilis_fatal("packet trace '%s' is empty (missing header "
                    "'%s')",
                    path.c_str(), kHeader);
    trace.finalize();
    return trace;
}

std::string
PacketTrace::diff(const PacketTrace &a, const PacketTrace &b)
{
    const std::vector<Entry> &ea = a.entries();
    const std::vector<Entry> &eb = b.entries();
    const size_t n = std::min(ea.size(), eb.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(ea[i] == eb[i]))
            return strprintf("entry %zu differs:\n  a: %s\n  b: %s",
                             i, entryLine(ea[i]).c_str(),
                             entryLine(eb[i]).c_str());
    }
    if (ea.size() != eb.size())
        return strprintf("entry counts differ: a has %zu, b has "
                         "%zu (first extra: %s)",
                         ea.size(), eb.size(),
                         entryLine(ea.size() > eb.size() ? ea[n]
                                                         : eb[n])
                             .c_str());
    return std::string();
}

void
PacketTrace::saveState(SnapshotWriter &w) const
{
    wilis_assert(!finalized_,
                 "saveState() on a finalized packet trace");
    w.marker(0x43415254); // "TRAC"
    w.u64(shards_.size());
    for (const std::vector<Entry> &shard : shards_) {
        w.u64(shard.size());
        for (const Entry &e : shard) {
            w.u64(e.slot);
            w.i64(e.cell);
            w.i64(e.user);
            w.u8(static_cast<std::uint8_t>(e.cls));
            w.u64(e.seq);
            w.u8(static_cast<std::uint8_t>(e.event));
            w.i64(e.arg0);
            w.i64(e.arg1);
        }
    }
}

void
PacketTrace::loadState(SnapshotReader &r)
{
    wilis_assert(!finalized_,
                 "loadState() on a finalized packet trace");
    r.marker(0x43415254);
    const std::uint64_t shards = r.u64();
    if (shards != shards_.size())
        wilis_fatal("snapshot '%s': trace has %llu shards, this trace "
                    "has %zu",
                    r.origin().c_str(),
                    static_cast<unsigned long long>(shards),
                    shards_.size());
    // Bytes one entry occupies in the snapshot (see saveState()).
    constexpr size_t kEntryBytes = 6 * 8 + 2;
    for (std::vector<Entry> &shard : shards_) {
        shard.clear();
        const std::uint64_t n = r.u64();
        if (n > r.remaining() / kEntryBytes)
            wilis_fatal("snapshot '%s': trace shard of %llu entries "
                        "cannot fit in the %zu bytes left",
                        r.origin().c_str(),
                        static_cast<unsigned long long>(n),
                        r.remaining());
        shard.reserve(static_cast<size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            Entry e;
            e.slot = r.u64();
            e.cell = static_cast<std::int32_t>(r.i64());
            e.user = static_cast<std::int32_t>(r.i64());
            e.cls = static_cast<TrafficClass>(r.u8());
            e.seq = r.u64();
            e.event = static_cast<PacketEvent>(r.u8());
            e.arg0 = r.i64();
            e.arg1 = r.i64();
            shard.push_back(e);
        }
    }
}

} // namespace mac
} // namespace wilis
