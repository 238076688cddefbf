#include "sim/stats.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iomanip>

namespace ltp
{

void
Average::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

void
Average::merge(const Average &o)
{
    if (o.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = o.min_;
        max_ = o.max_;
    } else {
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }
    sum_ += o.sum_;
    count_ += o.count_;
}

void
Average::reset()
{
    sum_ = 0.0;
    count_ = 0;
    min_ = 0.0;
    max_ = 0.0;
}

Histogram::Histogram(double bucket_width, std::size_t n_buckets)
    : width_(bucket_width), buckets_(n_buckets, 0)
{
    assert(bucket_width > 0.0 && n_buckets > 0);
}

void
Histogram::sample(double v)
{
    ++total_;
    sum_ += v;
    // Compare in double before converting: casting a negative or
    // out-of-range value to size_t is undefined behavior. Negative (and
    // NaN) samples clamp into bucket 0.
    double idx = v / width_;
    if (idx >= double(buckets_.size()))
        ++overflow_;
    else if (idx > 0.0)
        ++buckets_[static_cast<std::size_t>(idx)];
    else
        ++buckets_[0];
}

void
Histogram::merge(const Histogram &o)
{
    assert(width_ == o.width_ && buckets_.size() == o.buckets_.size() &&
           "merging histograms of different shapes");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += o.buckets_[i];
    overflow_ += o.overflow_;
    total_ += o.total_;
    sum_ += o.sum_;
}

double
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    // Nearest-rank: the smallest bucket whose cumulative count covers
    // sample ceil(p * N), clamped to [1, N].
    auto target = static_cast<std::uint64_t>(std::ceil(p * double(total_)));
    target = std::max<std::uint64_t>(1, std::min(target, total_));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (cum >= target)
            return width_ * double(i + 1);
    }
    return width_ * double(buckets_.size());
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    total_ = 0;
    sum_ = 0.0;
}

StatId
StatGroup::counterId(const std::string &name)
{
    return counters_.intern(name);
}

StatId
StatGroup::averageId(const std::string &name)
{
    return averages_.intern(name);
}

Histogram &
StatGroup::histogram(const std::string &name, double bucket_width,
                     std::size_t n_buckets)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(name),
                          std::forward_as_tuple(bucket_width, n_buckets))
                 .first;
    }
    return it->second;
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    const Counter *c = counters_.find(name);
    return c ? c->value() : 0;
}

double
StatGroup::averageMean(const std::string &name) const
{
    const Average *a = averages_.find(name);
    return a ? a->mean() : 0.0;
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return counters_.ids.count(name) != 0;
}

bool
StatGroup::hasAverage(const std::string &name) const
{
    return averages_.ids.count(name) != 0;
}

const Histogram *
StatGroup::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

bool
StatGroup::hasHistogram(const std::string &name) const
{
    return histograms_.count(name) != 0;
}

std::uint64_t
StatGroup::maxCounterValueWithPrefix(const std::string &prefix) const
{
    std::uint64_t best = 0;
    for (auto it = counters_.ids.lower_bound(prefix);
         it != counters_.ids.end() && it->first.compare(0, prefix.size(),
                                                        prefix) == 0;
         ++it)
        best = std::max(best, counters_.at(it->second).value());
    return best;
}

std::uint64_t
StatGroup::sumCountersWithPrefix(const std::string &prefix) const
{
    std::uint64_t sum = 0;
    for (auto it = counters_.ids.lower_bound(prefix);
         it != counters_.ids.end() && it->first.compare(0, prefix.size(),
                                                        prefix) == 0;
         ++it)
        sum += counters_.at(it->second).value();
    return sum;
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[name, id] : counters_.ids)
        os << name << " " << counters_.at(id).value() << "\n";
    for (const auto &[name, id] : averages_.ids) {
        const Average &a = averages_.at(id);
        os << name << " mean=" << std::fixed << std::setprecision(2)
           << a.mean() << " count=" << a.count() << " min=" << a.min()
           << " max=" << a.max() << "\n";
    }
    for (const auto &[name, h] : histograms_) {
        os << name << " hist mean=" << std::fixed << std::setprecision(2)
           << h.mean() << " count=" << h.totalSamples()
           << " p50=" << h.percentile(0.5) << " p99=" << h.percentile(0.99)
           << " overflow=" << h.overflow() << "\n";
    }
}

StatSnapshot
StatSnapshot::delta(const StatSnapshot &older) const
{
    StatSnapshot d;
    for (const auto &[name, value] : counters) {
        auto it = older.counters.find(name);
        d.counters[name] =
            value - (it == older.counters.end() ? 0 : it->second);
    }
    for (const auto &[name, avg] : averages) {
        auto it = older.averages.find(name);
        AvgState base =
            it == older.averages.end() ? AvgState{} : it->second;
        d.averages[name] = AvgState{avg.sum - base.sum,
                                    avg.count - base.count};
    }
    return d;
}

StatSnapshot
StatGroup::snapshot() const
{
    StatSnapshot snap;
    for (const auto &[name, id] : counters_.ids)
        snap.counters[name] = counters_.at(id).value();
    for (const auto &[name, id] : averages_.ids) {
        const Average &a = averages_.at(id);
        snap.averages[name] = StatSnapshot::AvgState{a.sum(), a.count()};
    }
    return snap;
}

void
StatGroup::resetAll()
{
    for (const auto &[name, id] : counters_.ids)
        counters_.at(id).reset();
    for (const auto &[name, id] : averages_.ids)
        averages_.at(id).reset();
    for (auto &[name, h] : histograms_)
        h.reset();
}

} // namespace ltp
