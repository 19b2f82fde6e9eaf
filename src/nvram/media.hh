/**
 * @file
 * 3D-XPoint media model.
 *
 * The media is an array of 256B chunks spread over a small number of
 * independent partitions (die groups). Each partition services one
 * chunk operation at a time from three priority queues -- demand
 * reads, writes, then background fills -- with reads several times
 * faster than writes, matching the asymmetry the paper's
 * characterization shows. Addresses given to the media are *media*
 * addresses: the AIT above performs the CPU-to-media indirection,
 * and wear-leveling migrations change that mapping, not this device.
 */

#ifndef VANS_NVRAM_MEDIA_HH
#define VANS_NVRAM_MEDIA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/fifo_ring.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "nvram/nvram_config.hh"

namespace vans::obs
{
class TraceRecorder;
} // namespace vans::obs

namespace vans::nvram
{

/** The non-volatile media array behind the AIT. */
// simlint-hot
class XPointMedia
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    XPointMedia(EventQueue &eq, const NvramConfig &cfg);

    /**
     * Demand-read one media chunk (cfg.mediaChunkBytes at
     * @p media_addr, chunk-aligned). Highest priority.
     */
    void readChunk(Addr media_addr, DoneCallback done);

    /** Background fill read: lowest priority. */
    void readChunkBackground(Addr media_addr, DoneCallback done);

    /** Write one media chunk. @p done fires at persist time. */
    void writeChunk(Addr media_addr, DoneCallback done);

    /** Earliest tick the partition owning @p media_addr frees. */
    Tick partitionFreeAt(Addr media_addr) const;

    /**
     * Write admission control: true while the owning partition's
     * write queue is below its depth limit. Callers seeing false
     * must retry (e.g. at partitionFreeAt()); this is how media
     * write pressure propagates back to the CPU store stream.
     */
    bool canAccept(Addr media_addr) const;

    /** Queue depth over all partitions (pending + in flight). */
    std::size_t pendingOps() const;

    /** Snapshot precondition: no operation queued or in flight. */
    bool quiescent() const { return pendingOps() == 0; }

    /** Outstanding background-fill chunks across all partitions.
     *  The AIT throttles new misses when this backs up, which is
     *  what converts 4KB-per-miss fills into a real bandwidth cost
     *  instead of silently deferred work. */
    std::size_t fillBacklog() const;

    /** Chunks written so far. */
    std::uint64_t chunksWritten() const { return chunkWrites.value(); }

    const StatGroup &stats() const { return statGroup; }

    /**
     * Attach tracing: one track per partition, a span per chunk
     * operation covering its device-busy interval. Pointer only.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_prefix);

    /**
     * Serialize warm media state (per-partition busy horizon +
     * stats). Requires quiescent(): operation queues and the
     * completion events that drain them are never serialized.
     */
    void serialize(snapshot::Archive &ar);

  private:
    enum class Priority : std::uint8_t
    {
        Demand,
        Write,
        Fill,
    };

    struct Op
    {
        bool write;
        DoneCallback done;
        Addr addr = 0;       ///< Chunk address (trace annotation).
        bool fill = false;   ///< Background fill (trace label).
    };

    struct Partition
    {
        Tick freeAt = 0;
        bool busy = false; ///< An op occupies the partition.
        FifoRing<Op> demand;
        FifoRing<Op> writes;
        FifoRing<Op> fills;
    };

    unsigned partitionOf(Addr media_addr) const;
    void enqueue(Addr media_addr, bool write, Priority prio,
                 DoneCallback done);
    void kick(unsigned pi);

    EventQueue &eventq;
    const NvramConfig cfg;
    std::vector<Partition> partitions;
    const Tick readTicks;
    const Tick writeTicks;
    /** Write-queue bound per partition (see canAccept). */
    static constexpr std::size_t maxQueueDepth = 4;
    StatGroup statGroup;
    StatScalar chunkReads{statGroup, "chunk_reads"};
    StatScalar chunkWrites{statGroup, "chunk_writes"};
    StatAverage readQueueNs{statGroup, "read_queue_ns"};
    StatAverage writeQueueNs{statGroup, "write_queue_ns"};

    obs::TraceRecorder *tracer = nullptr;
    /** Trace ids, refilled by attachTracer. */
    struct TraceWiring
    {
        std::uint16_t read = 0;
        std::uint16_t write = 0;
        std::uint16_t fill = 0;
        std::vector<std::uint16_t> tracks; ///< One per partition.
    };
    TraceWiring wiring;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_MEDIA_HH
