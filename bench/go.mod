module streamcache/bench

go 1.24

require streamcache v0.0.0

replace streamcache => ../
