module hacfs/benchmark

go 1.22

require hacfs v0.0.0

replace hacfs => ../
