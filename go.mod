module wearmem

go 1.23
