/**
 * @file
 * Decoder registry entries and factory helpers.
 */

#include "decode/soft_decoder.hh"

#include <string>

#include "common/logging.hh"
#include "decode/bcjr.hh"
#include "decode/sova.hh"
#include "decode/viterbi.hh"
#include "phy/conv_code.hh"

namespace wilis {
namespace decode {

namespace {

/** BCJR with the logmap flag forced on, for registry purposes. */
class LogMapBcjrFactory
{
  public:
    static std::unique_ptr<SoftDecoder>
    make(const li::Config &cfg)
    {
        li::Config c = cfg;
        c.set("logmap", "true");
        return std::make_unique<BcjrDecoder>(c);
    }
};

const bool registered = [] {
    auto &reg = DecoderRegistry::global();
    reg.add("viterbi", [](const li::Config &cfg) {
        return std::unique_ptr<SoftDecoder>(
            std::make_unique<ViterbiDecoder>(cfg));
    });
    reg.add("sova", [](const li::Config &cfg) {
        return std::unique_ptr<SoftDecoder>(
            std::make_unique<SovaDecoder>(cfg));
    });
    reg.add("bcjr", [](const li::Config &cfg) {
        return std::unique_ptr<SoftDecoder>(
            std::make_unique<BcjrDecoder>(cfg));
    });
    reg.add("bcjr-logmap", LogMapBcjrFactory::make);
    return true;
}();

} // namespace

int
windowKey(const li::Config &cfg, const char *key, int def)
{
    const long v = cfg.getInt(key, def);
    if (v < phy::ConvCode::kConstraint || v > kMaxDecoderWindow)
        wilis_fatal("decoder key '%s' = %s outside [%d, %ld]", key,
                    cfg.getString(key, std::to_string(def)).c_str(),
                    phy::ConvCode::kConstraint, kMaxDecoderWindow);
    return static_cast<int>(v);
}

std::unique_ptr<SoftDecoder>
makeDecoder(const std::string &name, const li::Config &cfg)
{
    return DecoderRegistry::global().create(name, cfg);
}

void
linkDecoders()
{
    // Referencing `registered` pins this translation unit.
    (void)registered;
}

} // namespace decode
} // namespace wilis
