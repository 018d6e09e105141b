module shield/benchmark

go 1.22

require shield v0.0.0

replace shield => ../
