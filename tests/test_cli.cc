/**
 * @file
 * End-to-end checks of the wilis_cli binary's argument handling:
 * --help and -h print the usage text and exit 0 instead of being
 * read as a config-file path.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

/** Run wilis_cli with @p args; returns stdout + stderr, sets status. */
std::string
runCli(const std::string &args, int *status)
{
    const std::string cmd =
        std::string(WILIS_CLI_BIN) + " " + args + " 2>&1";
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
