/**
 * @file
 * Full-system configuration: the paper's Table I plus the scheme knobs
 * every experiment varies.
 */

#pragma once

#include <string>

#include "common/types.hh"
#include "core/core_model.hh"
#include "dram/dram.hh"
#include "fault/fault_spec.hh"
#include "noc/latency_model.hh"
#include "secmem/counter_design.hh"

namespace emcc {

/** Which secure-memory organization the system runs. */
enum class Scheme
{
    NonSecure,     ///< no encryption/verification (the Fig-16 baseline)
    McOnly,        ///< counters cached only in the MC's private cache
    LlcBaseline,   ///< + counters cached in LLC, serial access (prior work)
    Emcc,          ///< + counters cached and used in L2 (this paper)
};

const char *schemeName(Scheme s);

/** Parse a scheme keyword (nonsecure|mconly|baseline|emcc); throws
 *  ConfigError on anything else. */
Scheme parseScheme(const std::string &s);

/** Parse a counter-design keyword (monolithic|sc64|morphable); throws
 *  ConfigError on anything else. */
CounterDesignKind parseCounterDesign(const std::string &s);

/** Table-I microarchitecture parameters + scheme/crypto knobs. */
struct SystemConfig
{
    unsigned cores = 4;
    CoreConfig core;

    // ---- cache hierarchy (latencies additive, like Table I)
    std::uint64_t l1_bytes = 64_KiB;
    unsigned l1_assoc = 8;
    Tick l1_latency = nsToTicks(2.0);

    std::uint64_t l2_bytes = 1_MiB;
    unsigned l2_assoc = 8;
    Tick l2_latency = nsToTicks(4.0);

    std::uint64_t llc_bytes = 8_MiB;
    unsigned llc_assoc = 16;
    Tick llc_latency = nsToTicks(17.0);     ///< additive L3 hit component

    // ---- NoC path constants (see DESIGN.md; consistent with Table I)
    Tick req_l2_to_llc = nsToTicks(6.5);    ///< one-way request
    Tick llc_tag = nsToTicks(2.0);          ///< miss determination
    Tick noc_llc_mc = nsToTicks(17.0);      ///< one-way LLC <-> MC
    Tick resp_mc_to_l2 = nsToTicks(34.0);   ///< response MC -> L2
    Tick llc_ctr_access = nsToTicks(19.0);  ///< direct LLC counter access
    Tick emcc_ctr_payload_extra = nsToTicks(2.0); ///< 'M' payload extra

    // ---- secure-memory metadata
    CounterDesignKind design = CounterDesignKind::Morphable;
    std::uint64_t mc_ctr_cache_bytes = 128_KiB;
    unsigned mc_ctr_cache_assoc = 32;
    Tick mc_ctr_cache_latency = nsToTicks(3.0);
    std::uint64_t l2_ctr_cap_bytes = 32_KiB;  ///< EMCC's L2 counter cap

    // ---- crypto
    Tick aes_latency = nsToTicks(14.0);
    double total_aes_ops_per_sec = 2.6e9;
    /** Fraction of AES units moved from the MC to the L2s (EMCC). */
    double l2_aes_fraction = 0.5;
    bool adaptive_offload = true;
    /** Under EMCC, delay AES start by LLC hit latency (waste guard). */
    bool llc_hit_wait = true;
    /** XPT-style LLC miss prediction (Fig 14). */
    bool xpt = false;

    // ---- paper §IV-F extensions
    /** Inclusive LLC: DRAM fills also allocate in the LLC, marked
     *  "encrypted & unverified" until an L2 verifies them; LLC
     *  evictions back-invalidate L2 copies. */
    bool inclusive_llc = false;
    /** Dynamically disable EMCC for non-memory-intensive phases by
     *  sampling DRAM fills per 1000 L2 accesses. */
    bool dynamic_emcc_off = false;
    /** EMCC stays on while DRAM fills per 1000 L2 accesses >= this. */
    double memory_intensity_threshold = 1.0;
    /** L2 accesses per intensity sampling window. */
    Count intensity_window = 4096;

    // ---- EMCC serial-lookup delay ('J' components)
    Tick l2_spare_cycle_wait = nsToTicks(2.0);

    // ---- memory & paging
    DramConfig dram;
    std::uint64_t page_bytes = 2_MiB;
    /** Size of the protected data region backing the address spaces. */
    std::uint64_t data_region_bytes = 4_GiB;

    // ---- NoC distribution for the non-uniform latency component
    NocConfig noc;
    bool nonuniform_noc = true;

    // ---- fault injection & resilience (src/fault)
    /** Fault campaign to run against the timing stack (empty = off). */
    FaultSpec faults;
    /** Seed for the injector's trigger/jitter decisions. */
    std::uint64_t fault_seed = 1;
    /** Recovery attempts (cache-bypassing re-fetch + re-verify) before
     *  a MAC failure escalates to a terminal IntegrityViolation. */
    unsigned max_verify_retries = 3;
    /** Throw IntegrityViolation on escalation instead of recording a
     *  fatal fault event and fail-stopping the access. */
    bool fault_strict = false;
    /** Forward-progress watchdog window in ticks (0 = disabled): fires
     *  when no core commits an instruction for a whole window. */
    Tick watchdog_window{};
    /** Drain the event queue after a run and warn about leaks
     *  (undrained events, stuck MSHRs, populated DRAM queues). */
    bool leak_check = true;

    Scheme scheme = Scheme::Emcc;
    std::uint64_t seed = 1;

    // Placement predicates: the only code that maps a Scheme to where
    // counters are cached and where data is decrypted (DESIGN.md §4).

    /** True unless NonSecure: data is encrypted and verified. */
    bool secure() const { return scheme != Scheme::NonSecure; }

    /** True if this scheme caches counters in the LLC. */
    bool
    countersInLlc() const
    {
        return scheme == Scheme::LlcBaseline || scheme == Scheme::Emcc;
    }

    /** True if counters are also cached in the L2s, which then decrypt
     *  with their own AES units (EMCC). */
    bool countersInL2() const { return scheme == Scheme::Emcc; }

    /** AES throughput provisioned per L2 (ops/sec). */
    double
    l2AesRate() const
    {
        return total_aes_ops_per_sec * l2_aes_fraction / cores;
    }

    /** AES throughput remaining at the MC (ops/sec). */
    double
    mcAesRate() const
    {
        const double f = countersInL2() ? l2_aes_fraction : 0.0;
        return total_aes_ops_per_sec * (1.0 - f);
    }

    /** Render the instantiated parameters as a Table-I-style listing. */
    std::string renderTable() const;

    /** Sanity-check the configuration; throws ConfigError with a
     *  helpful message on the first violated constraint. */
    void validate() const;
};

} // namespace emcc
