/**
 * @file
 * End-to-end checks of the CLI binaries' argument handling:
 * wilis_cli's --help and -h print the usage text and exit 0 instead
 * of being read as a config-file path, and a malformed, non-finite
 * or oversized spec value makes network_sim fail with a located
 * error.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

/** Run @p bin with @p args; returns stdout + stderr, sets status. */
std::string
runBinary(const char *bin, const std::string &args, int *status)
{
    const std::string cmd = std::string(bin) + " " + args + " 2>&1";
    FILE *p = popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr) << cmd;
    std::string out;
    if (!p)
        return out;
    char buf[512];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    *status = pclose(p);
    return out;
}

/** Run wilis_cli with @p args; returns stdout + stderr, sets status. */
std::string
runCli(const std::string &args, int *status)
{
    return runBinary(WILIS_CLI_BIN, args, status);
}

} // namespace

TEST(WilisCli, HelpPrintsUsageAndExitsZero)
{
    for (const char *flag : {"--help", "-h"}) {
        int status = -1;
        const std::string out = runCli(flag, &status);
        ASSERT_TRUE(WIFEXITED(status)) << flag;
        EXPECT_EQ(WEXITSTATUS(status), 0) << flag << "\n" << out;
        EXPECT_EQ(out.rfind("usage: ", 0), 0u) << flag << "\n" << out;
        EXPECT_NE(out.find("--network <spec-arg>"), std::string::npos)
            << out;
        EXPECT_EQ(out.find("fatal"), std::string::npos) << out;
        EXPECT_EQ(out.find("default experiment"), std::string::npos)
            << out;
    }
}

TEST(WilisCli, HelpWinsOverOtherArguments)
{
    int status = -1;
    const std::string out = runCli("--network cell-16 --help", &status);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << out;
    EXPECT_EQ(out.rfind("usage: ", 0), 0u) << out;
}

TEST(WilisCli, MissingConfigFileIsStillAnError)
{
    int status = -1;
    const std::string out = runCli("no-such-file.cfg", &status);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1) << out;
    EXPECT_NE(out.find("cannot open config file"), std::string::npos)
        << out;
}

TEST(NetworkSimCli, EmptyNumericSpecValuesAreErrors)
{
    // An empty value used to read as 0 (seed 0, no ACK delay).
    int status = -1;
    const std::string out = runBinary(
        WILIS_NETWORK_SIM_BIN, "cell-16,net_seed=,ack_delay= 2 1",
        &status);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), 1) << out;
    EXPECT_NE(out.find("config key '"), std::string::npos) << out;
}

TEST(NetworkSimCli, NonFiniteSpecValuesAreErrors)
{
    // strtod reads "nan"; it used to run with every SNR nan.
    int status = -1;
    const std::string out = runBinary(
        WILIS_NETWORK_SIM_BIN, "cell-16,snr_db=nan 2 1", &status);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), 1) << out;
    EXPECT_NE(out.find("config key 'snr_db': 'nan' is not a finite "
                       "number"),
              std::string::npos)
        << out;
}

TEST(NetworkSimCli, OversizedDeploymentIsRejectedBeforeAllocation)
{
    // 36 users x 46340^2 cells would be a ~620 GB gain matrix: the
    // spec check must stop it before Topology allocates anything.
    int status = -1;
    const std::string out = runBinary(
        WILIS_NETWORK_SIM_BIN, "grid-3x3,cells=46340x46340 1 1",
        &status);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), 1) << out;
    EXPECT_NE(out.find("keys 'users' x 'cells' = 36 x 46340x46340 = "
                       "77306241600 links exceeds the limit of "
                       "67108864"),
              std::string::npos)
        << out;
}
