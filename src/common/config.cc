#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/log.hh"
#include "common/spec.hh"

namespace wormnet
{

namespace
{

std::string
lowered(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

} // namespace

Config
Config::parseArgs(int argc, const char *const *argv)
{
    Config cfg;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            cfg.positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            cfg.set(arg, argv[++i]);
        } else {
            cfg.set(arg, "true");
        }
    }
    return cfg;
}

Config
Config::parseString(const std::string &text)
{
    Config cfg;
    for (const std::string &item : splitFields(text, ',')) {
        if (item.empty())
            continue;
        const auto eq = item.find('=');
        if (eq == std::string::npos)
            cfg.set(item, "true");
        else
            cfg.set(item.substr(0, eq), item.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("option --", key, ": '", it->second,
              "' is not an integer");
    return v;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::int64_t v = getInt(key, 0);
    if (v < 0)
        fatal("option --", key, ": must be non-negative");
    return static_cast<std::uint64_t>(v);
}

double
Config::getDouble(const std::string &key, double def) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return def;
    double v = 0.0;
    if (!tryParseReal(it->second, v))
        fatal("option --", key, ": '", it->second,
              "' is not a number");
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string v = lowered(it->second);
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("option --", key, ": '", it->second, "' is not a boolean");
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream os;
    for (const auto &kv : values_)
        os << kv.first << '=' << kv.second << '\n';
    return os.str();
}

} // namespace wormnet
