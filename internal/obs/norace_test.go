//go:build !race

package obs

// raceBuild reports a build under the race detector (see race_test.go).
const raceBuild = false
