#include "campaign/engine.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "common/error.hh"
#include "common/table.hh"
#include "system/experiment.hh"

extern char **environ;

namespace emcc {
namespace campaign {

namespace {

/** sleep_for in fractional seconds (the cadence constants). */
void
sleepS(double seconds)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

} // namespace

std::string
CampaignSummary::render() const
{
    Table t({"outcome", "runs"});
    t.addRow({"ok", std::to_string(ok)});
    t.addRow({"failed", std::to_string(failed)});
    t.addRow({"timeout", std::to_string(timeout)});
    t.addRow({"retried", std::to_string(retried)});
    t.addRow({"skipped (resumed)", std::to_string(skipped)});
    t.addRow({"not run", std::to_string(not_run)});
    t.addRow({"total", std::to_string(total)});
    std::string out = t.render();
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "attempts=%llu timeout_attempts=%llu executed=%llu "
                  "journal_dropped=%llu host_s=%.2f%s\n",
                  static_cast<unsigned long long>(attempts),
                  static_cast<unsigned long long>(timeout_attempts),
                  static_cast<unsigned long long>(executed),
                  static_cast<unsigned long long>(journal_dropped),
                  host_seconds, interrupted ? " [interrupted]" : "");
    out += buf;
    return out;
}

CampaignEngine::CampaignEngine(CampaignSpec spec, EngineOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts)),
      policy_(spec_.retries, spec_.backoff_ms,
              opts_.deadline_s_override > 0.0 ? opts_.deadline_s_override
                                              : spec_.deadline_s),
      runs_(spec_.expand())
{
    if (opts_.jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        opts_.jobs = hw > 0 ? hw : 1;
    }
}

bool
CampaignEngine::cancelling() const
{
    return opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_relaxed);
}

bool
CampaignEngine::draining() const
{
    return (opts_.drain != nullptr &&
            opts_.drain->load(std::memory_order_relaxed)) ||
           cancelling();
}

double
CampaignEngine::runDeadlineS(const RunDesc &run) const
{
    // A command's own deadline wins over the spec's, but an explicit
    // CLI override beats both.
    if (opts_.deadline_s_override > 0.0)
        return opts_.deadline_s_override;
    if (run.kind == RunDesc::Kind::Command && run.cmd.deadline_s > 0.0)
        return run.cmd.deadline_s;
    return policy_.deadlineS();
}

void
CampaignEngine::prebuildWorkloads(const std::vector<const RunDesc *> &todo)
{
    // Build every distinct trace set once, on this thread, before the
    // pool starts: workers then only ever hit the (immutable) cache.
    // Deliberately serial: a graph build already uses every core
    // (generation, CSR scatter and per-core traces run under
    // parallelFor), and cachedWorkload() holds its mutex across a build,
    // so fanning the builds out would only queue them on that lock.
    for (const RunDesc *r : todo) {
        if (r->kind == RunDesc::Kind::Sim)
            experiments::cachedWorkload(r->workload, r->scale.workload);
    }
}

CampaignSummary
CampaignEngine::run()
{
    timer_.restart();

    CampaignSummary sum;
    sum.total = runs_.size();

    // Journal + resume: prior terminal records satisfy their run ids.
    std::vector<char> skip(runs_.size(), 0);
    if (!opts_.journal_path.empty()) {
        if (!opts_.resume)
            std::remove(opts_.journal_path.c_str());
        {
            sync::MutexLock jlk(journal_mutex_);
            journal_.open(opts_.journal_path, spec_.name, spec_.digest(),
                          opts_.fsync_journal);
        }
        Journal::LoadResult prior = Journal::load(opts_.journal_path);
        journal_dropped_ = prior.dropped_lines;
        resumed_ = std::move(prior.records);
        for (const JournalRecord &r : resumed_) {
            if (r.run < runs_.size())
                skip[static_cast<std::size_t>(r.run)] = 1;
        }
    }

    std::vector<const RunDesc *> todo;
    {
        sync::MutexLock lk(mutex_);
        for (const RunDesc &r : runs_) {
            if (skip[static_cast<std::size_t>(r.index)]) {
                ++sum.skipped;
                continue;
            }
            queue_.push(Task{r.index, 1, 0, 0.0});
            ++pending_;
            todo.push_back(&r);
        }
        todo_total_ = pending_;
    }
    prebuildWorkloads(todo);

    const unsigned jobs = static_cast<unsigned>(std::min<std::size_t>(
        opts_.jobs, std::max<std::size_t>(todo.size(), 1)));
    flights_.clear();
    for (unsigned i = 0; i < jobs; ++i)
        flights_.push_back(std::make_unique<Flight>());

    done_.store(false);
    std::thread monitor([this] { monitorLoop(); });
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
    for (std::thread &w : workers)
        w.join();
    done_.store(true);
    monitor.join();
    {
        sync::MutexLock jlk(journal_mutex_);
        journal_.close();
    }

    // Workers are joined, but the counters stay annotated as guarded —
    // take the lock rather than carve out an analysis exception.
    {
        sync::MutexLock lk(mutex_);

        // Union of resumed + freshly executed records, last per run id.
        std::map<Count, const JournalRecord *> by_run;
        for (const JournalRecord &r : resumed_)
            by_run[r.run] = &r;
        for (const JournalRecord &r : records_)
            by_run[r.run] = &r;
        terminal_.clear();
        terminal_.reserve(by_run.size());
        for (const auto &[id, rec] : by_run)
            terminal_.push_back(*rec);

        sum.executed = records_.size();
        sum.not_run = abandoned_;
        sum.attempts = attempts_executed_;
        sum.timeout_attempts = timeout_attempts_;
        sum.interrupted = draining() || abandoned_ > 0;
    }

    for (const JournalRecord &r : terminal_) {
        switch (r.outcome) {
          case Outcome::Ok: ++sum.ok; break;
          case Outcome::Failed: ++sum.failed; break;
          case Outcome::Timeout: ++sum.timeout; break;
        }
        if (r.attempts > 1)
            ++sum.retried;
    }
    sum.journal_dropped = journal_dropped_;
    sum.host_seconds = timer_.seconds();
    return sum;
}

void
CampaignEngine::abandonQueued()
{
    abandoned_ += queue_.size();
    pending_ -= queue_.size();
    while (!queue_.empty())
        queue_.pop();
    cv_.notify_all();
}

bool
CampaignEngine::claimTask(Task &out)
{
    sync::MutexLock lk(mutex_);
    for (;;) {
        // A drain abandons everything still queued; in-flight runs (on
        // any worker) finish or deadline out and get journaled.
        if (draining() && !queue_.empty())
            abandonQueued();
        if (pending_ == 0)
            return false;
        if (queue_.empty()) {
            // The remaining runs are in flight elsewhere (and may yet
            // retry); wake on completion or to re-check the drain flag.
            cv_.waitFor(mutex_, kIdleRecheckPeriodS);
            continue;
        }
        const double now = timer_.seconds();
        if (queue_.top().not_before > now) {
            cv_.waitFor(mutex_, queue_.top().not_before - now);
            continue;
        }
        out = queue_.top();
        queue_.pop();
        return true;
    }
}

void
CampaignEngine::workerLoop(unsigned slot)
{
    Flight &flight = *flights_[slot];
    Task task;
    while (claimTask(task)) {
        const RunDesc &run = runs_[static_cast<std::size_t>(task.run)];

        // Arm the flight slot: deadline_at published before active, so
        // the monitor never pairs active==true with a stale deadline.
        flight.stop.store(false);
        flight.deadline_fired.store(false);
        flight.deadline_at.store(timer_.seconds() + runDeadlineS(run));
        flight.active.store(true);

        obs::HostTimer attempt_timer;
        const AttemptResult res = execAttempt(run, task.attempt, flight);
        flight.active.store(false);

        settleAttempt(run, task, res, flight,
                      attempt_timer.seconds() * 1e3);
    }
}

void
CampaignEngine::settleAttempt(const RunDesc &run, Task task,
                              const AttemptResult &res,
                              const Flight &flight, double host_ms)
{
    const bool deadline_fired = flight.deadline_fired.load();
    // Stopped by a campaign cancel (not the watchdog): leave the
    // run unjournaled so a resume re-executes it from scratch.
    const bool user_cancel = flight.stop.load() && !deadline_fired &&
                             res.status != AttemptResult::Status::Ok;
    const bool timed_out = res.status == AttemptResult::Status::Timeout;

    bool retry = false;
    Outcome outcome = Outcome::Ok;
    {
        sync::MutexLock lk(mutex_);
        ++attempts_executed_;
        if (deadline_fired && timed_out)
            ++timeout_attempts_;
        if (user_cancel) {
            ++abandoned_;
            --pending_;
            cv_.notify_all();
            return;
        }
        if (res.status != AttemptResult::Status::Ok) {
            if (timed_out)
                ++task.timeouts;
            const RetryPolicy::Decision d =
                timed_out ? policy_.onTimeout(task.attempt, draining())
                          : policy_.onFailure(task.attempt, draining());
            retry = d.retry;
            outcome = d.outcome;
            if (retry) {
                queue_.push(Task{task.run, task.attempt + 1,
                                 task.timeouts,
                                 timer_.seconds() + d.delay_ms / 1e3});
                cv_.notify_all();
            }
        }
    }

    if (retry) {
        progress("retry run " + std::to_string(task.run) + " " +
                 run.name + " (attempt " + std::to_string(task.attempt) +
                 " " + (timed_out ? "timed out" : "failed") + ": " +
                 res.error + ")");
        return;
    }
    finishRun(run, task, res, outcome, host_ms);
}

void
CampaignEngine::monitorLoop()
{
    double next_beat = opts_.heartbeat_s;
    while (!done_.load()) {
        const bool cancel = cancelling();
        const double now = timer_.seconds();
        if (opts_.heartbeat_s > 0.0 && now >= next_beat) {
            emitHeartbeat();
            next_beat = now + opts_.heartbeat_s;
        }
        for (const std::unique_ptr<Flight> &f : flights_) {
            if (!f->active.load())
                continue;
            const bool late = now >= f->deadline_at.load();
            if (!cancel && !late)
                continue;
            // deadline_fired is published before stop so a worker that
            // observes the stop cannot misread a watchdog cancellation
            // as a user cancel.
            if (!cancel && late)
                f->deadline_fired.store(true);
            f->stop.store(true);
            // Subprocesses are killed by their owning worker when it
            // observes the stop flag (see execCommand): only the
            // worker knows whether the pid is still unreaped, so only
            // it can SIGKILL without racing pid reuse.
        }
        sleepS(kMonitorScanPeriodS);
    }
}

void
CampaignEngine::emitHeartbeat()
{
    Count total = 0, done = 0, failed = 0, retried = 0, pending = 0;
    double mean_ms = 0.0;
    {
        sync::MutexLock lk(mutex_);
        total = todo_total_;
        pending = pending_;
        done = records_.size();
        double sum_ms = 0.0;
        for (const JournalRecord &r : records_) {
            if (r.outcome != Outcome::Ok)
                ++failed;
            if (r.attempts > 1)
                ++retried;
            sum_ms += r.host_ms;
        }
        if (done > 0)
            mean_ms = sum_ms / static_cast<double>(done);
    }
    char line[192];
    if (done > 0 && pending > 0) {
        // Crude ETA: completed-run mean, remaining runs, full pool.
        const double eta_s = static_cast<double>(pending) * mean_ms /
                             1e3 / static_cast<double>(flights_.size());
        std::snprintf(line, sizeof(line),
                      "heartbeat: %llu/%llu done (%llu failed, %llu "
                      "retried), elapsed %.1fs, eta ~%.0fs",
                      static_cast<unsigned long long>(done),
                      static_cast<unsigned long long>(total),
                      static_cast<unsigned long long>(failed),
                      static_cast<unsigned long long>(retried),
                      timer_.seconds(), eta_s);
    } else {
        std::snprintf(line, sizeof(line),
                      "heartbeat: %llu/%llu done (%llu failed, %llu "
                      "retried), elapsed %.1fs",
                      static_cast<unsigned long long>(done),
                      static_cast<unsigned long long>(total),
                      static_cast<unsigned long long>(failed),
                      static_cast<unsigned long long>(retried),
                      timer_.seconds());
    }
    progress(line);
}

CampaignEngine::AttemptResult
CampaignEngine::execAttempt(const RunDesc &run, unsigned attempt,
                            Flight &flight)
{
    AttemptResult out;
    if (run.chaos_hard_fail) {
        out.status = AttemptResult::Status::Failed;
        out.error = "chaos: injected hard failure";
        return out;
    }
    if (attempt <= run.chaos_fail_attempts) {
        out.status = AttemptResult::Status::Failed;
        out.error = "chaos: injected failure (attempt " +
                    std::to_string(attempt) + ")";
        return out;
    }
    if (attempt <= run.chaos_wedge_attempts) {
        wedgeRun(flight);
        out.status = AttemptResult::Status::Timeout;
        out.error = "chaos: wedged until deadline";
        return out;
    }
    if (run.kind == RunDesc::Kind::Command)
        return execCommand(run, flight);
    return execSim(run, flight);
}

CampaignEngine::AttemptResult
CampaignEngine::execSim(const RunDesc &run, Flight &flight)
{
    AttemptResult out;
    try {
        const WorkloadSet &w =
            experiments::cachedWorkload(run.workload, run.scale.workload);
        experiments::RunOptions ro;
        ro.cancel = &flight.stop;
        ro.ffwd = run.ffwd;
        ro.sample = run.sample;
        const RunResults r =
            experiments::runTiming(run.cfg, w, run.scale, ro);
        if (r.partial) {
            out.status = AttemptResult::Status::Timeout;
            out.error = "cancelled at deadline";
            return out;
        }
        out.stats_json = "{\"schema\":\"emcc-stats-v1\"," +
                         r.metrics.toJsonBody() + "}";
    } catch (const std::exception &e) {
        // Includes strict-mode IntegrityViolation: one run's escalation
        // must never take the pool down.
        out.status = AttemptResult::Status::Failed;
        out.error = e.what();
    }
    return out;
}

CampaignEngine::AttemptResult
CampaignEngine::execCommand(const RunDesc &run, Flight &flight)
{
    AttemptResult out;
    const CommandSpec &cmd = run.cmd;

    // Build argv/envp before forking — the child must not allocate.
    std::vector<std::string> env_store;
    env_store.reserve(cmd.env.size());
    std::vector<char *> envp;
    for (char **e = environ; e != nullptr && *e != nullptr; ++e)
        envp.push_back(*e);
    for (const auto &[k, v] : cmd.env) {
        env_store.push_back(k + "=" + v);
        envp.push_back(env_store.back().data());
    }
    envp.push_back(nullptr);

    std::vector<char *> argv;
    argv.reserve(cmd.argv.size() + 1);
    for (const std::string &a : cmd.argv)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
        out.status = AttemptResult::Status::Failed;
        out.error = "fork failed";
        return out;
    }
    if (pid == 0) {
        const int fd =
            cmd.log.empty()
                ? ::open("/dev/null", O_WRONLY)
                : ::open(cmd.log.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            dup2(fd, 1);
            dup2(fd, 2);
            if (fd > 2)
                ::close(fd);
        }
        execvpe(argv[0], argv.data(), envp.data());
        _exit(127);
    }

    // Reap loop. The owning worker is the only thread that may SIGKILL
    // the child: it alone knows the pid is still unreaped, so the kill
    // can never race a waitpid() elsewhere and hit a recycled pid. The
    // monitor just raises flight.stop; we notice within one reap
    // period.
    int status = 0;
    bool kill_sent = false;
    for (;;) {
        const pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid)
            break;
        if (r < 0) {
            status = 0;
            break;
        }
        if (!kill_sent && flight.stop.load()) {
            kill(pid, SIGKILL);
            kill_sent = true;
        }
        sleepS(kChildReapPeriodS);
    }

    const int code = WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                     : WIFEXITED(status) ? WEXITSTATUS(status)
                                         : 127;
    out.exit_code = code;
    if (flight.stop.load()) {
        out.status = AttemptResult::Status::Timeout;
        out.error = "killed at deadline";
        return out;
    }
    if (WIFSIGNALED(status)) {
        out.status = AttemptResult::Status::Failed;
        out.error =
            "killed by signal " + std::to_string(WTERMSIG(status));
        return out;
    }
    if (code != cmd.expect_exit) {
        out.status = AttemptResult::Status::Failed;
        out.error = "exit " + std::to_string(code) + " (want " +
                    std::to_string(cmd.expect_exit) + ")";
    }
    return out;
}

void
CampaignEngine::wedgeRun(Flight &flight)
{
    // A deliberately hung attempt: responds to nothing except the
    // cooperative stop flag, which only the deadline watchdog (or a
    // campaign cancel) raises — the shape of a wedged simulation the
    // engine must recover from.
    while (!flight.stop.load(std::memory_order_relaxed))
        sleepS(kWedgePollPeriodS);
}

void
CampaignEngine::finishRun(const RunDesc &run, const Task &task,
                          const AttemptResult &last, Outcome outcome,
                          double host_ms)
{
    JournalRecord rec;
    rec.run = run.index;
    rec.name = run.name;
    rec.outcome = outcome;
    rec.attempts = task.attempt;
    rec.timeouts = task.timeouts;
    rec.exit_code = last.exit_code;
    if (outcome != Outcome::Ok)
        rec.error = last.error;
    else
        rec.stats_json = last.stats_json;
    rec.host_ms = host_ms;

    {
        // Journaled (flushed + fsync'd) before the run counts as done:
        // a crash after this point never loses the outcome.
        sync::MutexLock jlk(journal_mutex_);
        if (journal_.isOpen())
            journal_.append(rec);
    }
    progress(std::string(outcomeName(outcome)) + " run " +
             std::to_string(rec.run) + " " + rec.name + " (attempts " +
             std::to_string(rec.attempts) + ", " +
             Table::num(host_ms, 0) + " ms)" +
             (rec.error.empty() ? "" : ": " + rec.error));
    {
        sync::MutexLock lk(mutex_);
        records_.push_back(std::move(rec));
        --pending_;
        cv_.notify_all();
    }
}

void
CampaignEngine::progress(const std::string &line)
{
    if (opts_.quiet)
        return;
    std::fprintf(stderr, "[campaign] %s\n", line.c_str());
}

} // namespace campaign
} // namespace emcc
