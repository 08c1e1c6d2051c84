#include "common/spec.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace wormnet
{

std::vector<std::string>
splitFields(const std::string &text, char sep)
{
    std::vector<std::string> fields(1);
    for (const char c : text) {
        if (c == sep)
            fields.emplace_back();
        else
            fields.back() += c;
    }
    return fields;
}

void
rejectSurplusFields(const std::vector<std::string> &fields,
                    std::size_t max, const std::string &spec)
{
    if (fields.size() > max)
        fatal("spec '", spec, "': unexpected field '", fields[max],
              "' (at most ", max - 1, " parameters)");
}

bool
tryParseUnsigned(const std::string &text, std::uint64_t max,
                 std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = std::uint64_t(c - '0');
        if (digit > max || v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
tryParseReal(const std::string &text, double &out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || errno == ERANGE ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

double
parseReal(const std::string &text, const char *what)
{
    double v = 0.0;
    if (!tryParseReal(text, v))
        fatal("bad ", what, " value '", text,
              "': expected a finite decimal number");
    return v;
}

std::vector<ItemSpec::Item>
ItemSpec::items(const std::string &spec) const
{
    std::vector<Item> out;
    for (std::string &text : splitFields(spec, ',')) {
        if (text.empty())
            continue;
        Item item;
        item.text = std::move(text);
        const std::size_t colon = item.text.find(':');
        if (colon == std::string::npos)
            fail(item);
        item.kind = item.text.substr(0, colon);
        item.rest = item.text.substr(colon + 1);
        out.push_back(std::move(item));
    }
    return out;
}

std::string
ItemSpec::timed(const Item &item, Cycle &at) const
{
    const std::size_t sep = item.rest.rfind('@');
    if (sep == std::string::npos)
        fail(item, ": missing '@<cycle>'");
    const std::string cycle = item.rest.substr(sep + 1);
    if (!tryParseUnsigned(cycle, kNever, at))
        fail(item, ": '", cycle, "' is not a number");
    return item.rest.substr(0, sep);
}

NodeId
ItemSpec::node(const Item &item, const std::string &text) const
{
    std::uint64_t v = 0;
    if (!tryParseUnsigned(text, std::numeric_limits<NodeId>::max(), v))
        fail(item, ": '", text, "' is not a node id");
    return static_cast<NodeId>(v);
}

std::pair<NodeId, NodeId>
ItemSpec::link(const Item &item, const std::string &where) const
{
    const std::size_t arrow = where.find('>');
    if (arrow == std::string::npos)
        fail(item, ": missing '>' between link endpoints");
    return {node(item, where.substr(0, arrow)),
            node(item, where.substr(arrow + 1))};
}

} // namespace wormnet
