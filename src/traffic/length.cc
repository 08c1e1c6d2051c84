#include "traffic/length.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "common/spec.hh"

namespace wormnet
{

FixedLength::FixedLength(unsigned flits) : flits_(flits)
{
    if (flits < 1)
        fatal("message length must be >= 1 flit");
}

unsigned
FixedLength::draw(Rng &)
{
    return flits_;
}

std::string
FixedLength::name() const
{
    std::ostringstream os;
    os << "fixed(" << flits_ << ")";
    return os.str();
}

MixLength::MixLength(std::vector<Component> components)
    : components_(std::move(components))
{
    if (components_.empty())
        fatal("length mix needs at least one component");
    double total = 0.0;
    max_ = 0;
    for (const auto &c : components_) {
        if (c.flits < 1)
            fatal("length mix component must be >= 1 flit");
        if (c.weight <= 0.0)
            fatal("length mix weights must be positive");
        total += c.weight;
        max_ = std::max(max_, c.flits);
    }
    mean_ = 0.0;
    for (auto &c : components_) {
        c.weight /= total;
        mean_ += c.weight * c.flits;
    }
}

unsigned
MixLength::draw(Rng &rng)
{
    double u = rng.nextDouble();
    for (const auto &c : components_) {
        if (u < c.weight)
            return c.flits;
        u -= c.weight;
    }
    return components_.back().flits; // numeric slack
}

std::string
MixLength::name() const
{
    std::ostringstream os;
    os << "mix(";
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (i)
            os << ", ";
        os << components_[i].flits << "x" << components_[i].weight;
    }
    os << ")";
    return os.str();
}

UniformLength::UniformLength(unsigned lo, unsigned hi)
    : lo_(lo), hi_(hi)
{
    if (lo < 1 || hi < lo)
        fatal("uniform length range [", lo, ", ", hi, "] is invalid");
}

unsigned
UniformLength::draw(Rng &rng)
{
    return lo_ + static_cast<unsigned>(rng.nextBounded(hi_ - lo_ + 1));
}

std::string
UniformLength::name() const
{
    std::ostringstream os;
    os << "uniform(" << lo_ << ".." << hi_ << ")";
    return os.str();
}

std::unique_ptr<LengthDistribution>
makeLengthDistribution(const std::string &spec)
{
    if (spec == "s")
        return std::make_unique<FixedLength>(16);
    if (spec == "l")
        return std::make_unique<FixedLength>(64);
    if (spec == "L")
        return std::make_unique<FixedLength>(256);
    if (spec == "sl") {
        return std::make_unique<MixLength>(std::vector<MixLength::Component>{
            {16, 0.6}, {64, 0.4}});
    }
    if (spec.rfind("mix:", 0) == 0) {
        std::vector<MixLength::Component> comps;
        for (const std::string &item : splitFields(spec.substr(4), ',')) {
            const auto x = item.find('x');
            if (x == std::string::npos)
                fatal("bad mix component '", item,
                      "', want <flits>x<weight>");
            comps.push_back(
                {parseUnsigned<unsigned>(item.substr(0, x),
                                         "mix component length"),
                 parseReal(item.substr(x + 1), "mix component weight")});
        }
        return std::make_unique<MixLength>(std::move(comps));
    }
    if (spec.rfind("uniform:", 0) == 0) {
        const std::vector<std::string> bounds =
            splitFields(spec.substr(8), ':');
        if (bounds.size() != 2)
            fatal("bad uniform length spec '", spec,
                  "', want uniform:<lo>:<hi>");
        const auto lo =
            parseUnsigned<unsigned>(bounds[0], "uniform length low");
        const auto hi =
            parseUnsigned<unsigned>(bounds[1], "uniform length high");
        return std::make_unique<UniformLength>(lo, hi);
    }
    // Bare integer: fixed length.
    std::uint64_t v = 0;
    if (tryParseUnsigned(spec, ~0u, v) && v >= 1)
        return std::make_unique<FixedLength>(static_cast<unsigned>(v));
    fatal("unknown length distribution '", spec, "'");
}

} // namespace wormnet
