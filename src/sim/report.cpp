#include "sim/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common/stats.h"
#include "obs/export.h"
#include "obs/json.h"

namespace btbsim {

void
ResultSet::add(const std::vector<SimStats> &v)
{
    for (const SimStats &s : v)
        results_.push_back(s);
}

const SimStats *
ResultSet::find(const std::string &config, const std::string &workload) const
{
    for (const SimStats &s : results_)
        if (s.config == config && s.workload == workload)
            return &s;
    return nullptr;
}

std::vector<std::string>
ResultSet::configs() const
{
    std::vector<std::string> out;
    for (const SimStats &s : results_)
        if (std::find(out.begin(), out.end(), s.config) == out.end())
            out.push_back(s.config);
    return out;
}

std::vector<std::string>
ResultSet::workloads() const
{
    std::vector<std::string> out;
    for (const SimStats &s : results_)
        if (std::find(out.begin(), out.end(), s.workload) == out.end())
            out.push_back(s.workload);
    return out;
}

std::vector<double>
ResultSet::normalizedIpc(const std::string &config,
                         const std::string &baseline) const
{
    std::vector<double> out;
    for (const std::string &wl : workloads()) {
        const SimStats *c = find(config, wl);
        const SimStats *b = find(baseline, wl);
        if (c && b && b->ipc > 0)
            out.push_back(c->ipc / b->ipc);
    }
    return out;
}

namespace {

double
quantile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

void
ResultSet::printNormalizedTable(std::ostream &os,
                                const std::string &baseline) const
{
    os << std::left << std::setw(28) << "config" << std::right
       << std::setw(8) << "min" << std::setw(8) << "q1" << std::setw(8)
       << "median" << std::setw(8) << "q3" << std::setw(8) << "max"
       << std::setw(9) << "geomean" << "\n";
    os << std::string(77, '-') << "\n";
    os << std::fixed << std::setprecision(3);
    for (const std::string &cfg : configs()) {
        std::vector<double> v = normalizedIpc(cfg, baseline);
        if (v.empty())
            continue;
        const double gm = geomean(v);
        std::sort(v.begin(), v.end());
        os << std::left << std::setw(28) << cfg << std::right
           << std::setw(8) << v.front() << std::setw(8) << quantile(v, 0.25)
           << std::setw(8) << quantile(v, 0.5) << std::setw(8)
           << quantile(v, 0.75) << std::setw(8) << v.back() << std::setw(9)
           << gm << "\n";
    }
}

double
geomeanIpc(const std::vector<SimStats> &all, const std::string &config)
{
    std::vector<double> v;
    for (const SimStats &s : all)
        if (s.config == config)
            v.push_back(s.ipc);
    return geomean(v);
}

void
ResultSet::printDetailTable(std::ostream &os) const
{
    os << std::left << std::setw(28) << "config" << std::right
       << std::setw(8) << "gm-IPC" << std::setw(8) << "PCs/ac"
       << std::setw(8) << "MPKI" << std::setw(8) << "MFPKI"
       << std::setw(8) << "L1hit%" << std::setw(8) << "hit%"
       << std::setw(8) << "occL1" << std::setw(8) << "redL1"
       << std::setw(8) << "Mi/s" << "\n";
    os << std::string(100, '-') << "\n";
    os << std::fixed << std::setprecision(2);
    for (const std::string &cfg : configs()) {
        std::vector<double> pcs, mpki, mfpki, l1hit, hit, occ, red, speed;
        for (const SimStats &s : results_) {
            if (s.config != cfg)
                continue;
            pcs.push_back(s.fetch_pcs_per_access);
            mpki.push_back(s.branch_mpki);
            mfpki.push_back(s.misfetch_pki);
            l1hit.push_back(s.l1_btb_hitrate);
            hit.push_back(s.btb_hitrate);
            occ.push_back(s.l1_slot_occupancy);
            red.push_back(s.l1_redundancy);
            speed.push_back(s.minst_per_host_sec);
        }
        auto mean = [](const std::vector<double> &v) {
            double sum = 0.0;
            for (double x : v)
                sum += x;
            return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
        };
        os << std::left << std::setw(28) << cfg << std::right
           << std::setw(8) << geomeanIpc(results_, cfg) << std::setw(8)
           << mean(pcs) << std::setw(8) << mean(mpki) << std::setw(8)
           << mean(mfpki) << std::setw(8) << mean(l1hit) * 100.0
           << std::setw(8) << mean(hit) * 100.0 << std::setw(8) << mean(occ)
           << std::setw(8) << mean(red) << std::setw(8) << mean(speed)
           << "\n";
    }
}

void
ResultSet::writeJson(std::ostream &os, const std::string &bench,
                     const std::map<std::string, double> *experiment,
                     const obs::ProfileBlock *profile) const
{
    obs::JsonWriter w(os);
    w.beginObject();
    w.kv("schema_version", obs::kSchemaVersion);
    w.kv("generator", "btbsim");
    w.kv("bench", bench);

    w.key("runs");
    w.beginArray();
    for (const SimStats &s : results_)
        obs::writeSimStatsJson(w, s);
    w.endArray();

    if (experiment) {
        w.key("experiment");
        w.beginObject();
        for (const auto &[name, v] : *experiment)
            w.kv(name, v);
        w.endObject();
    }

    if (profile) {
        w.key("profile");
        obs::writeProfileBlockJson(w, *profile);
    }

    w.endObject();
    os << "\n";
}

} // namespace btbsim
