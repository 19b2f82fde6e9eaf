#include "common/snapshot.hh"

#include <cstring>

#include "common/check.hh"
#include "common/event_queue.hh"
#include "common/mem_system.hh"

namespace vans::snapshot
{

// One-byte type codes prefixing every serialized value.
static constexpr std::uint8_t kTag = 0xA0;
static constexpr std::uint8_t kU64 = 0xA1;
static constexpr std::uint8_t kF64 = 0xA2;
static constexpr std::uint8_t kBool = 0xA3;
static constexpr std::uint8_t kStr = 0xA4;

void
StateSink::raw(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    bytes.insert(bytes.end(), b, b + n);
}

void
StateSink::tag(const char *name)
{
    bytes.push_back(kTag);
    std::uint64_t len = std::strlen(name);
    raw(&len, sizeof(len));
    raw(name, len);
}

void
StateSink::u64(std::uint64_t v)
{
    bytes.push_back(kU64);
    raw(&v, sizeof(v));
}

void
StateSink::f64(double v)
{
    bytes.push_back(kF64);
    raw(&v, sizeof(v));
}

void
StateSink::boolean(bool v)
{
    bytes.push_back(kBool);
    bytes.push_back(v ? 1 : 0);
}

void
StateSink::str(const std::string &s)
{
    bytes.push_back(kStr);
    std::uint64_t len = s.size();
    raw(&len, sizeof(len));
    raw(s.data(), len);
}

std::uint8_t
StateSource::code(std::uint8_t expect)
{
    VANS_REQUIRE("snapshot", 0, off < bytes.size(),
                 "state stream exhausted (wanted code 0x%02x)",
                 expect);
    std::uint8_t c = bytes[off++];
    VANS_REQUIRE("snapshot", 0, c == expect,
                 "state stream type mismatch: got 0x%02x, "
                 "wanted 0x%02x at offset %zu",
                 c, expect, off - 1);
    return c;
}

void
StateSource::raw(void *p, std::size_t n)
{
    VANS_REQUIRE("snapshot", 0, off + n <= bytes.size(),
                 "state stream truncated (%zu wanted, %zu left)", n,
                 bytes.size() - off);
    std::memcpy(p, bytes.data() + off, n);
    off += n;
}

void
StateSource::tag(const char *name)
{
    code(kTag);
    std::uint64_t len = 0;
    raw(&len, sizeof(len));
    VANS_REQUIRE("snapshot", 0, off + len <= bytes.size(),
                 "state stream truncated inside tag");
    std::string got(reinterpret_cast<const char *>(bytes.data() + off),
                    len);
    off += len;
    VANS_REQUIRE("snapshot", 0, got == name,
                 "section tag mismatch: stream has \"%s\", "
                 "restorer wants \"%s\"",
                 got.c_str(), name);
}

std::uint64_t
StateSource::u64()
{
    code(kU64);
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
}

double
StateSource::f64()
{
    code(kF64);
    double v = 0;
    raw(&v, sizeof(v));
    return v;
}

bool
StateSource::boolean()
{
    code(kBool);
    VANS_REQUIRE("snapshot", 0, off < bytes.size(),
                 "state stream truncated inside bool");
    return bytes[off++] != 0;
}

std::string
StateSource::str()
{
    code(kStr);
    std::uint64_t len = 0;
    raw(&len, sizeof(len));
    VANS_REQUIRE("snapshot", 0, off + len <= bytes.size(),
                 "state stream truncated inside string");
    std::string s(reinterpret_cast<const char *>(bytes.data() + off),
                  len);
    off += len;
    return s;
}

void
Archive::count(const char *what, std::uint64_t n)
{
    std::uint64_t stream = n;
    field(stream);
    VANS_REQUIRE("snapshot", 0, stream == n,
                 "%s count mismatch (%llu vs %llu)", what,
                 static_cast<unsigned long long>(stream),
                 static_cast<unsigned long long>(n));
}

/** The whole world: kernel counters, then the memory system. */
static void
serializeWorld(Archive &ar, EventQueue &eq, MemorySystem &sys)
{
    ar.tag("world");
    eq.serialize(ar);
    sys.serialize(ar);
    ar.tag("world-end");
}

WorldSnapshot
WorldSnapshot::capture(EventQueue &eq, MemorySystem &sys)
{
    VANS_REQUIRE("snapshot", eq.curTick(), sys.quiescent(),
                 "capture of a non-quiescent world");
    StateSink sink;
    Archive ar(sink);
    serializeWorld(ar, eq, sys);
    WorldSnapshot snap;
    snap.image = sink.take();
    return snap;
}

void
WorldSnapshot::restoreInto(EventQueue &eq, MemorySystem &sys) const
{
    VANS_REQUIRE("snapshot", eq.curTick(), valid(),
                 "restore from an empty snapshot");
    StateSource src(image);
    Archive ar(src);
    serializeWorld(ar, eq, sys);
    VANS_REQUIRE("snapshot", eq.curTick(), src.exhausted(),
                 "trailing bytes after world restore");
}

void
awaitQuiescence(EventQueue &eq, MemorySystem &sys,
                std::uint64_t maxEvents)
{
    (void)eq;
    sys.drain(maxEvents);
}

} // namespace vans::snapshot
