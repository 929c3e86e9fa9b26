#include "obs/request.h"

#include "core/json.h"
#include "obs/export.h"

namespace polymath::obs {

std::string
RequestRecord::json() const
{
    std::string out;
    json::Writer w(out);
    w.beginObject().field("id", requestId);
    w.field("verb", verb);
    w.field("backends", backends);
    w.field("exit", exitCode);
    w.field("cache_hits", cacheHits);
    w.field("cache_misses", cacheMisses);
    w.field("queue_wait_us", queueWaitMicros);
    w.field("execute_us", executeMicros);
    w.field("bytes_in", bytesIn);
    w.field("bytes_out", bytesOut);
    w.field("finished_at_us", finishedAtMicros);
    w.key("trace").beginArray();
    for (const auto &event : trace)
        writeTraceEvent(w, event);
    w.endArray().endObject();
    return out;
}

void
FlightRecorder::push(RequestRecord record)
{
    if (capacity_ == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++total_;
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(record));
        return;
    }
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % capacity_;
}

uint64_t
FlightRecorder::totalPushed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

std::vector<RequestRecord>
FlightRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RequestRecord> out;
    out.reserve(ring_.size());
    // Once wrapped, next_ is the oldest slot; before that, slot 0 is.
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(next_ + i) % ring_.size()]);
    return out;
}

std::string
FlightRecorder::json() const
{
    const auto records = snapshot();
    std::string out;
    json::Writer w(out);
    w.beginObject().field("capacity", capacity_);
    w.field("recorded", totalPushed());
    w.key("records").beginArray();
    for (const auto &record : records)
        w.lineBreak().raw(record.json());
    w.endArray().endObject();
    return out;
}

void
RateWindow::pruneLocked(int64_t nowMicros) const
{
    const int64_t horizon = nowMicros - window_;
    while (!marks_.empty() && marks_.front().first < horizon)
        marks_.pop_front();
}

void
RateWindow::mark(int64_t nowMicros, int64_t count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pruneLocked(nowMicros);
    if (!marks_.empty() && marks_.back().first == nowMicros) {
        marks_.back().second += count;
        return;
    }
    marks_.emplace_back(nowMicros, count);
}

double
RateWindow::ratePerSecond(int64_t nowMicros) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    pruneLocked(nowMicros);
    int64_t total = 0;
    for (const auto &[ts, count] : marks_)
        total += count;
    return static_cast<double>(total) /
           (static_cast<double>(window_) / 1e6);
}

} // namespace polymath::obs
